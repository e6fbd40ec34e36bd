package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"carbon/internal/checkpoint"
)

// The router's spool mirrors serve's discipline: every record lands via
// temp+rename so a crash leaves either the old file or the new one,
// never a torn read; torn files found at startup are quarantined aside
// as evidence, and their IDs burned so fresh routes never collide.
//
// Layout, per fleet job f000001:
//
//	f000001.route.json   where the job lives (worker, worker job ID, spec)
//	f000001.ckpt.json    last mirrored checkpoint envelope (failover seed)
//	fleet.spans.jsonl    the router's own trace spans
func writeFileAtomic(path string, b []byte) error {
	return checkpoint.WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

func writeJSONAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(b, '\n'))
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	return nil
}
