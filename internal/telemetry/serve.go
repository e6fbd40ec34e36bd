package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
)

// Handler exposes live introspection over HTTP:
//
//	/metrics              JSON snapshot of every passed registry
//	/metrics/prometheus   the same registries in Prometheus text format
//	/debug/vars           expvar: the runtime's memstats and cmdline
//	/debug/pprof/         the full pprof suite (profile, heap, trace, ...)
//
// Each registry is rendered once per format, under its map key. The two
// metrics routes are mounted only when at least one registry is given:
// without one they answer 404 rather than an empty body, and only the
// process-level /debug routes are served. The pprof handlers are wired
// explicitly onto a private mux, so importing this package never
// mutates http.DefaultServeMux.
func Handler(regs map[string]*Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if len(regs) == 0 {
		return mux
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		out := make(map[string]map[string]any, len(regs))
		for name, r := range regs {
			out[name] = r.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/metrics/prometheus", func(w http.ResponseWriter, _ *http.Request) {
		names := make([]string, 0, len(regs))
		for name := range regs {
			names = append(names, name)
		}
		sort.Strings(names)
		targets := make([]PromTarget, len(names))
		for i, name := range names {
			targets[i] = PromTarget{Name: name, Registry: regs[name]}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, targets...)
	})
	return mux
}

// Serve starts the introspection endpoint (Handler) on addr (e.g.
// ":8080") in a background goroutine. It returns the bound address
// (useful with ":0") and a stop function.
func Serve(addr string, regs map[string]*Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(regs)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
