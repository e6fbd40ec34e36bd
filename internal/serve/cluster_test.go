package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carbon/internal/checkpoint"
	"carbon/internal/core"
)

// snapshotBytes runs spec's config in-process for a few generations and
// returns the encoded checkpoint envelope — a valid seed checkpoint for
// SubmitWithCheckpoint, exactly what a cluster router mirrors.
func snapshotBytes(t *testing.T, spec JobSpec, gens int) []byte {
	t.Helper()
	spec = spec.withDefaults()
	mk, err := spec.Market()
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(mk, spec.Config())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gens; i++ {
		if !e.Step() {
			t.Fatalf("engine exhausted after %d generations", i)
		}
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecoverHostileSpool is the regression test for the spool rescan:
// a spool full of non-job debris — quarantined siblings, span files,
// directories, stray names — must neither be loaded as jobs nor crash
// recovery, and every ID embedded in debris must be burned so fresh
// submissions cannot collide with the leftovers.
func TestRecoverHostileSpool(t *testing.T) {
	spool := t.TempDir()

	// A valid spooled job that recovery must requeue and finish.
	m1, err := NewManager(Options{SpoolDir: spool, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Submit(tinySpec(31)); err != nil {
		t.Fatal(err)
	}
	_ = m1.Close(t.Context())

	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(spool, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Debris, in rough order of hostility: a torn spec (quarantine), a
	// pre-quarantined job whose ID must be burned, an orphan span file
	// from a deleted job (ID must be burned too), a torn checkpoint
	// sibling, names that aren't job IDs at all, and a directory whose
	// name mimics a spec.
	write("j000002.job.json", `{"n": 60, "m":`)
	write("j000005.job.json.corrupt", `{"garbage`)
	write("j000007.spans.jsonl", `{"name":"job"}`)
	write("j000004.ckpt.json.corrupt", "xxx")
	write("README.txt", "not a job")
	write("weird.job.json", `{"n": 60}`)
	if err := os.MkdirAll(filepath.Join(spool, "dir.job.json"), 0o755); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Options{SpoolDir: spool, Workers: 2})
	list := m2.List()
	if len(list) != 1 || list[0].ID != "j000001" {
		t.Fatalf("recovered %d jobs %v, want only j000001", len(list), list)
	}
	// The torn spec was quarantined, not deleted and not loaded.
	if _, err := os.Stat(filepath.Join(spool, "j000002.job.json.corrupt")); err != nil {
		t.Fatalf("torn spec not quarantined: %v", err)
	}
	// Every ID embedded in debris is burned: the next submission must
	// jump past the highest one (7, from the orphan span file).
	st, err := m2.Submit(tinySpec(32))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000008" {
		t.Fatalf("fresh submission got ID %s, want j000008 (debris IDs burned)", st.ID)
	}
	waitState(t, m2, "j000001", StateDone)
	waitState(t, m2, st.ID, StateDone)
}

func TestHealthSnapshot(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 8})
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(longSpec(uint64(40 + i))); err != nil {
			t.Fatal(err)
		}
	}
	// One worker slot: the dispatcher takes exactly one job, the other
	// two wait in the queue — the arithmetic a router's least-loaded
	// policy depends on.
	var h Health
	waitFor(t, "load snapshot to settle at 1 running / 2 queued", func() bool {
		h = m.Health()
		return h.Running == 1 && h.QueueDepth == 2
	})
	if !h.OK || h.Draining {
		t.Fatalf("healthy manager reported %+v", h)
	}
	if h.JobsTotal != 3 || h.QueueCap != 8 || h.Workers != 1 {
		t.Fatalf("load snapshot %+v, want 3 jobs, cap 8, 1 worker", h)
	}
	for _, st := range m.List() {
		_ = m.Cancel(st.ID)
	}
}

func TestCheckpointBytes(t *testing.T) {
	m := newTestManager(t, Options{Workers: 0})
	st, err := m.Submit(tinySpec(41))
	if err != nil {
		t.Fatal(err)
	}
	// Queued job, no checkpoint yet.
	if _, err := m.CheckpointBytes(st.ID); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("checkpoint of fresh job: %v, want ErrNoCheckpoint", err)
	}
	if _, err := m.CheckpointBytes("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("checkpoint of unknown job: %v, want ErrNotFound", err)
	}
	// A clean envelope on disk round-trips.
	ckpt := snapshotBytes(t, tinySpec(41), 3)
	if err := os.WriteFile(m.ckptPath(st.ID), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := m.CheckpointBytes(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ckpt) {
		t.Fatal("checkpoint bytes mutated in transit")
	}
	// A torn envelope is reported absent — never shipped.
	if err := os.WriteFile(m.ckptPath(st.ID), ckpt[:len(ckpt)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckpointBytes(st.ID); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("torn checkpoint: %v, want ErrNoCheckpoint", err)
	}
}

// TestSubmitWithCheckpointResumes is the failover core in miniature:
// seed a job with a mid-run checkpoint and the finished result must be
// bit-identical to an uninterrupted run — the same guarantee a job
// re-homed across workers gets.
func TestSubmitWithCheckpointResumes(t *testing.T) {
	spec := tinySpec(42)
	want := reference(t, spec)
	ckpt := snapshotBytes(t, spec, 4)

	m := newTestManager(t, Options{Workers: 1})
	st, err := m.SubmitWithCheckpoint(spec, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, StateDone)
	if !fin.Resumed {
		t.Fatal("seeded job did not resume from its checkpoint")
	}
	rec, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, rec, want)

	// Garbage bytes are rejected up front, before anything is spooled.
	if _, err := m.SubmitWithCheckpoint(spec, []byte("not a checkpoint")); err == nil {
		t.Fatal("garbage seed checkpoint accepted")
	}
}

// hostileSnapshotBytes builds a structurally valid checkpoint envelope
// whose decoded state has been mutated — the shape a malicious or
// bit-rotted peer hands a router during failover.
func hostileSnapshotBytes(t *testing.T, spec JobSpec, mutate func(*checkpoint.State)) []byte {
	t.Helper()
	spec = spec.withDefaults()
	mk, err := spec.Market()
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(mk, spec.Config())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !e.Step() {
			t.Fatal(e.Err())
		}
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mutate(st)
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHostileCheckpointQuarantined is the serve end of the hostile-tree
// contract: a checkpoint whose envelope is structurally valid but whose
// predator encodings are hostile — a 513-node tree one past gp.MaxNodes
// or a terminal the primitive set does not know — must pass submission
// (Validate is structural only), fail core.Restore inside execute, get
// quarantined as *.corrupt, and leave the job to finish fresh with the
// bit-identical result of an unseeded run. No panic anywhere.
func TestHostileCheckpointQuarantined(t *testing.T) {
	spec := tinySpec(42)
	want := reference(t, spec)
	// 256 "+" ops over 257 "c" leaves: 513 nodes, one past gp.MaxNodes.
	oversize := strings.Repeat("(+ ", 256) + "c" + strings.Repeat(" c)", 256)
	cases := map[string]func(*checkpoint.State){
		"oversize tree":    func(st *checkpoint.State) { st.Predators[0] = oversize },
		"unknown terminal": func(st *checkpoint.State) { st.Predators[0] = "(+ c zz)" },
		"oversize archive": func(st *checkpoint.State) { st.GPArchT[0] = oversize },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			ckpt := hostileSnapshotBytes(t, spec, mutate)
			spool := t.TempDir()
			m := newTestManager(t, Options{Workers: 1, SpoolDir: spool})
			st, err := m.SubmitWithCheckpoint(spec, ckpt)
			if err != nil {
				t.Fatalf("structurally valid envelope rejected up front: %v", err)
			}
			fin := waitState(t, m, st.ID, StateDone)
			if fin.Resumed {
				t.Fatal("job resumed from a hostile checkpoint")
			}
			rec, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, rec, want)
			corrupt, err := filepath.Glob(filepath.Join(spool, "*.corrupt"))
			if err != nil {
				t.Fatal(err)
			}
			if len(corrupt) == 0 {
				t.Fatal("hostile checkpoint was not quarantined on disk")
			}
		})
	}
}
