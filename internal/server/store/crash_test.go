package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uexc/internal/core"
	"uexc/internal/harness"
	"uexc/internal/sweep"
)

// TestCrashPoints checks the journal's crash consistency the way ALICE
// does (Pillai et al., OSDI 2014): by crashing at every point that
// changes what the file holds. A durable 3-seed fault campaign journals
// each merged shard through the store, and the store is abandoned —
// SIGKILL's effect on the process — after each shard append, and after
// each completed fsync (as the next round waits on the disk). Every
// crashed journal is reopened and the campaign resumed from it. The
// resumed run must be byte-identical to an undisturbed one, the crashed
// file must hold a gap-free shard prefix, and the resume must not re-run
// a shard the last completed fsync covered.
func TestCrashPoints(t *testing.T) {
	const seeds = 3
	kind := harness.Campaign.Kind()
	shards := harness.CampaignShards(seeds)
	pool := &core.MachinePool{}
	run := func(done []json.RawMessage, journal func(int, json.RawMessage) error, ran func(int)) (string, error) {
		var b bytes.Buffer
		o := sweep.Options{Seeds: seeds, Workers: 1, Pool: pool, Progress: &b}
		if ran != nil {
			o.Runner = func(i int, run func()) { ran(i); run() }
		}
		res, err := kind.Resume(context.Background(), o, done, journal)
		if err != nil {
			return "", err
		}
		return b.String() + res.Summary(), nil
	}
	want, err := run(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// crash runs the campaign on a fresh store, abandoning it after the
	// append of shard afterAppend or once afterSync fsyncs have
	// completed (-1: never). It reports whether the crash happened and
	// how many records the last completed fsync covered.
	crash := func(t *testing.T, dir string, afterAppend, afterSync int) (bool, uint64) {
		var s *Store
		syncs, crashed := 0, false
		delay := func() { // the sync loop's goroutine only
			if syncs++; syncs == afterSync+1 {
				s.Abandon()
				crashed = true
			}
		}
		s, _ = openT(t, dir, Options{SyncDelay: delay})
		if err := s.AcceptJob(1, json.RawMessage(`{"soak":"crash"}`), ""); err != nil {
			t.Fatal(err)
		}
		run(nil, func(i int, d json.RawMessage) error {
			if err := s.AppendShard(1, i, d); err != nil {
				return err
			}
			if i == afterAppend {
				s.Abandon()
			}
			return nil
		}, nil)
		if err := s.FinishJob(1, true, want, ""); err == nil {
			s.Close()
			return false, 0
		}
		s.Abandon()
		<-s.loopDone
		return afterAppend >= 0 || crashed, s.Stats().Synced
	}

	check := func(t *testing.T, dir string, synced uint64) {
		raw, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		next, finished := 0, false
		for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
			var r Record
			if !bytes.HasSuffix(line, []byte("\n")) || json.Unmarshal(line, &r) != nil {
				continue // the torn tail
			}
			finished = finished || r.T == "finish"
			if r.T != "shard" {
				continue
			}
			if r.Index != next {
				t.Fatalf("journal holds shard %d after %d shards: a gap", r.Index, next)
			}
			next++
		}
		durable := max(synced, 1) - 1 // every synced record past the accept
		if uint64(next) < durable {
			t.Fatalf("journal holds %d shards, but %d were fsynced", next, durable)
		}

		s, st := openT(t, dir, Options{})
		defer s.Close()
		if finished {
			// The kill landed after the finish record left the buffer:
			// the job is complete, and nothing is left to resume.
			if next != shards || len(st.Pending) != 0 || st.FinishedJobs != 1 {
				t.Fatalf("finished journal: %d shards, replay %+v", next, st)
			}
			return
		}
		if len(st.Pending) != 1 || len(st.Pending[0].Shards) != next {
			t.Fatalf("replay: %+v, want job 1 with the %d journaled shards", st.Pending, next)
		}
		done := st.Pending[0].Shards
		got, err := run(done, func(i int, d json.RawMessage) error { return s.AppendShard(1, i, d) }, func(i int) {
			if i < len(done) {
				t.Errorf("resume re-ran shard %d inside the %d-shard journaled prefix", i, len(done))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("resumed from %d shards: output differs\n--- got ---\n%s--- want ---\n%s", len(done), got, want)
		}
		if err := s.FinishJob(1, true, got, ""); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < shards; i++ {
		t.Run(fmt.Sprintf("after-append-%d", i), func(t *testing.T) {
			dir := t.TempDir()
			_, synced := crash(t, dir, i, -1)
			check(t, dir, synced)
		})
	}
	// How many fsync rounds a run takes depends on how the group commit
	// falls, so the rows run up to the journal's record count (the
	// accept, every shard, the finish) whatever the timing: the set of
	// subtests is the same on every run, and a row past the last round
	// runs the campaign uncrashed.
	for k := 1; ; k++ {
		dir := t.TempDir()
		crashed := false
		t.Run(fmt.Sprintf("after-sync-%d", k), func(t *testing.T) {
			var synced uint64
			if crashed, synced = crash(t, dir, -1, k); crashed {
				check(t, dir, synced)
			}
		})
		if !crashed && k >= shards+2 {
			break // the campaign finished in fewer fsyncs
		}
	}
}
