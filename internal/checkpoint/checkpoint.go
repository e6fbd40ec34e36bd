// Package checkpoint defines the durable snapshot format for CARBON
// engine state: a versioned, integrity-checked, human-inspectable JSON
// envelope holding everything a run needs to continue exactly where it
// stopped — populations with their encodings, archives, convergence
// curves, budget counters and the PRNG stream.
//
// The package is pure data: it knows how to serialize, validate and
// atomically persist a State, but not how to build one from an engine
// or rebuild an engine from one. That wiring lives in internal/core
// (Engine.Snapshot / core.Restore), which keeps the dependency arrow
// pointing one way — core imports checkpoint, never the reverse — so
// tools that only shuffle snapshot files (spool scanners, inspectors)
// need none of the evolutionary machinery.
//
// On-disk format: a JSON envelope
//
//	{"schema": "carbon.checkpoint/v2", "crc32": N, "state": {...}}
//
// where crc32 is the IEEE checksum of the exact state bytes. Decode
// rejects unknown schemas, checksum mismatches, trailing garbage and
// structurally inconsistent states, so a truncated or bit-flipped spool
// file surfaces as an error instead of a half-restored engine. State
// keys it does not know are ignored, so v2 files from writers that
// stored optional extra blocks still load.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Schema versions the snapshot format. v1 was the unversioned,
// unchecksummed core.Checkpoint JSON; v2 added this envelope. Decode
// refuses anything else — resuming from a format you do not understand
// is how half-restored state corrupts a run.
const Schema = "carbon.checkpoint/v2"

// State is a complete engine snapshot between generations. Trees travel
// as their canonical S-expressions (gp.Tree.String / gp.Parse), price
// vectors as plain float slices, so the file stays inspectable with any
// JSON tool.
//
// PreyBases holds, per prey, the encoded LP basis its next relaxation
// starts from (lp.Basis.MarshalBinary; empty for a parentless prey).
// It is optional: a state without it restores every prey parentless.
//
// What is deliberately NOT stored: the market (instances are regenerable
// from their (class, index) spec or loadable from OR-library files).
type State struct {
	// Fingerprint identifies the (config, market shape) pair the state
	// belongs to. core.Restore refuses a mismatch.
	Fingerprint string `json:"fingerprint"`

	RngState  [4]uint64   `json:"rng_state"`
	Prey      [][]float64 `json:"prey"`
	Predators []string    `json:"predators"`
	ULUsed    int         `json:"ul_used"`
	LLUsed    int         `json:"ll_used"`
	Gens      int         `json:"gens"`
	ULArchP   [][]float64 `json:"ul_arch_prices"`
	ULArchF   []float64   `json:"ul_arch_fitness"`
	GPArchT   []string    `json:"gp_arch_trees"`
	GPArchF   []float64   `json:"gp_arch_fitness"`
	ULCurveX  []float64   `json:"ul_curve_x"`
	ULCurveY  []float64   `json:"ul_curve_y"`
	GapCurveX []float64   `json:"gap_curve_x"`
	GapCurveY []float64   `json:"gap_curve_y"`
	PreyBases [][]byte    `json:"prey_bases,omitempty"`
}

// envelope is the on-disk frame around a State.
type envelope struct {
	Schema string          `json:"schema"`
	CRC32  uint32          `json:"crc32"`
	State  json.RawMessage `json:"state"`
}

// Validate checks the structural invariants every decodable State must
// satisfy. It cannot know population sizes or gene counts — those are
// config-dependent and checked again by core.Restore — but it rejects
// everything that is inconsistent on its own terms.
func (st *State) Validate() error {
	switch {
	case st == nil:
		return errors.New("checkpoint: nil state")
	case st.Fingerprint == "":
		return errors.New("checkpoint: empty fingerprint")
	case st.RngState[0]|st.RngState[1]|st.RngState[2]|st.RngState[3] == 0:
		return errors.New("checkpoint: all-zero rng state")
	case len(st.Prey) == 0:
		return errors.New("checkpoint: no prey population")
	case len(st.Predators) == 0:
		return errors.New("checkpoint: no predator population")
	case st.ULUsed < 0 || st.LLUsed < 0 || st.Gens < 0:
		return errors.New("checkpoint: negative counters")
	case len(st.ULArchP) != len(st.ULArchF):
		return fmt.Errorf("checkpoint: UL archive arrays disagree (%d prices, %d fitnesses)",
			len(st.ULArchP), len(st.ULArchF))
	case len(st.GPArchT) != len(st.GPArchF):
		return fmt.Errorf("checkpoint: GP archive arrays disagree (%d trees, %d fitnesses)",
			len(st.GPArchT), len(st.GPArchF))
	case len(st.ULCurveX) != len(st.ULCurveY):
		return errors.New("checkpoint: UL curve arrays disagree")
	case len(st.GapCurveX) != len(st.GapCurveY):
		return errors.New("checkpoint: gap curve arrays disagree")
	case len(st.PreyBases) != 0 && len(st.PreyBases) != len(st.Prey):
		return fmt.Errorf("checkpoint: %d prey bases for %d prey", len(st.PreyBases), len(st.Prey))
	}
	dim := len(st.Prey[0])
	if dim == 0 {
		return errors.New("checkpoint: zero-dimensional prey")
	}
	for i, x := range st.Prey {
		if len(x) != dim {
			return fmt.Errorf("checkpoint: prey %d has %d genes, others have %d", i, len(x), dim)
		}
	}
	for i, t := range st.Predators {
		if t == "" {
			return fmt.Errorf("checkpoint: predator %d is empty", i)
		}
	}
	return nil
}

// Encode writes the state as a checksummed envelope. The state payload
// is marshaled compactly; the envelope itself is indented so the schema
// stamp and checksum stay eyeballable at the top of the file.
func (st *State) Encode(w io.Writer) error {
	if err := st.Validate(); err != nil {
		return err
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("checkpoint: marshaling state: %w", err)
	}
	env := envelope{Schema: Schema, CRC32: crc32.ChecksumIEEE(payload), State: payload}
	out, err := json.MarshalIndent(&env, "", " ")
	if err != nil {
		return fmt.Errorf("checkpoint: marshaling envelope: %w", err)
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// Decode parses and verifies an envelope written by Encode. Any
// corruption — truncation, bit flips, trailing garbage, schema drift,
// structural inconsistency — returns an error; Decode never panics and
// never returns a partially valid State.
func Decode(r io.Reader) (*State, error) {
	dec := json.NewDecoder(r)
	var env envelope
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("checkpoint: parsing envelope: %w", err)
	}
	if dec.More() {
		return nil, errors.New("checkpoint: trailing data after envelope")
	}
	if env.Schema != Schema {
		return nil, fmt.Errorf("checkpoint: schema %q, want %q", env.Schema, Schema)
	}
	// The checksum covers the compacted payload, so it is insensitive to
	// JSON reformatting (Encode itself indents the envelope) but catches
	// any content change.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.State); err != nil {
		return nil, fmt.Errorf("checkpoint: compacting state: %w", err)
	}
	if got := crc32.ChecksumIEEE(compact.Bytes()); got != env.CRC32 {
		return nil, fmt.Errorf("checkpoint: crc mismatch (have %08x, header says %08x)", got, env.CRC32)
	}
	st := &State{}
	if err := json.Unmarshal(env.State, st); err != nil {
		return nil, fmt.Errorf("checkpoint: parsing state: %w", err)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// DecodeBytes is Decode over an in-memory snapshot.
func DecodeBytes(b []byte) (*State, error) { return Decode(bytes.NewReader(b)) }

// WriteFile persists the state atomically with WriteAtomic.
func (st *State) WriteFile(path string) error { return WriteAtomic(path, st.Encode) }

// WriteAtomic is the repository's one crash-safe file writer: write
// fills a temp file in path's directory, which is fsynced, closed and
// renamed over path. A crash at any moment leaves either the previous
// file or the new one, never a torn mix — the property the serve and
// cluster spools and -resume depend on. On failure the temp file is
// removed and path is untouched.
func WriteAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteJSON writes v as indented JSON, newline-terminated, through
// WriteAtomic. The serve and cluster spools keep every record this way.
func WriteJSON(path string, v any) error {
	return WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// ReadJSON decodes the JSON file at path into v. A read error is
// returned as is (it names the path); a decode error is wrapped with
// the path.
func ReadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return nil
}

// Quarantine moves a corrupt artifact aside to path+".corrupt" for
// post-mortem, instead of deleting evidence or refusing to start.
func Quarantine(path string) {
	_ = os.Rename(path, path+".corrupt")
}

// LoadFile reads and verifies a snapshot written by WriteFile.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return st, nil
}
