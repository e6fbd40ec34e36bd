package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample returns a structurally valid state for codec tests.
func sample() *State {
	return &State{
		Fingerprint: "v1|pop=4/4|test",
		RngState:    [4]uint64{1, 2, 3, 4},
		Prey:        [][]float64{{1, 2}, {3, 4}},
		Predators:   []string{"(+ c q)", "d"},
		ULUsed:      8,
		LLUsed:      16,
		Gens:        2,
		ULArchP:     [][]float64{{1, 2}},
		ULArchF:     []float64{42.5},
		GPArchT:     []string{"(+ c q)"},
		GPArchF:     []float64{0.25},
		ULCurveX:    []float64{24, 48},
		ULCurveY:    []float64{40, 42.5},
		GapCurveX:   []float64{24, 48},
		GapCurveY:   []float64{1, 0.25},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := sample()
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(st)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed state:\n%s\n%s", a, b)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"empty":        "",
		"not json":     "hello",
		"truncated":    good[:len(good)/2],
		"trailing":     good + "{}",
		"wrong schema": strings.Replace(good, Schema, "carbon.checkpoint/v999", 1),
		"bit flip":     strings.Replace(good, `"ul_used": 8`, `"ul_used": 9`, 1),
		"crc zero":     strings.Replace(good, `"crc32": `, `"crc32": 1`, 1),
	}
	if cases["bit flip"] == good {
		t.Fatal("bit-flip case did not alter the payload; update the test")
	}
	for name, src := range cases {
		if _, err := DecodeBytes([]byte(src)); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

func TestValidateRejectsInconsistentStates(t *testing.T) {
	breaks := map[string]func(*State){
		"no fingerprint": func(s *State) { s.Fingerprint = "" },
		"zero rng":       func(s *State) { s.RngState = [4]uint64{} },
		"no prey":        func(s *State) { s.Prey = nil },
		"no predators":   func(s *State) { s.Predators = nil },
		"ragged prey":    func(s *State) { s.Prey[1] = []float64{1} },
		"empty prey":     func(s *State) { s.Prey = [][]float64{{}, {}} },
		"empty tree":     func(s *State) { s.Predators[0] = "" },
		"negative gens":  func(s *State) { s.Gens = -1 },
		"ragged UL arch": func(s *State) { s.ULArchF = s.ULArchF[:0] },
		"ragged GP arch": func(s *State) { s.GPArchT = append(s.GPArchT, "c") },
		"ragged curve":   func(s *State) { s.ULCurveY = s.ULCurveY[:1] },
		"ragged gaps":    func(s *State) { s.GapCurveX = nil },
	}
	for name, mutate := range breaks {
		st := sample()
		mutate(st)
		if err := st.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		var buf bytes.Buffer
		if err := st.Encode(&buf); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
	if err := (*State)(nil).Validate(); err == nil {
		t.Error("nil state accepted")
	}
}

func TestWriteFileAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt.json")

	first := sample()
	if err := first.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Gens = 7
	if err := second.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gens != 7 {
		t.Fatalf("loaded generation %d, want 7", got.Gens)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestWriteFileCleansUpOnEncodeFailure(t *testing.T) {
	dir := t.TempDir()
	bad := sample()
	bad.Fingerprint = ""
	if err := bad.WriteFile(filepath.Join(dir, "x.json")); err == nil {
		t.Fatal("invalid state written")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("directory not clean after failed write: %v", entries)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.json")); !os.IsNotExist(err) {
		t.Fatalf("want os.IsNotExist error, got %v", err)
	}
}

func TestJSONSpoolRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	in := map[string]any{"id": "j000001", "gens": 3.0, "note": "<a&b>"}
	if err := WriteJSON(path, in); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.MarshalIndent(in, "", "  ")
	if string(got) != string(want)+"\n" {
		t.Fatalf("spool bytes:\n%s\nwant:\n%s", got, want)
	}
	var out map[string]any
	if err := ReadJSON(path, &out); err != nil || out["id"] != "j000001" || out["note"] != "<a&b>" {
		t.Fatalf("round trip: %v, %v", out, err)
	}
	if err := os.WriteFile(path, got[:len(got)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadJSON(path, &out); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("torn record: error %v does not name %s", err, path)
	}
	if err := ReadJSON(path+".missing", &out); !os.IsNotExist(err) {
		t.Fatalf("missing record: %v", err)
	}
}
