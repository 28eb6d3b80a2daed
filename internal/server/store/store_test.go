package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opts Options) (*Store, *State) {
	t.Helper()
	s, st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, st
}

// waitSynced waits until an fsync covers every record appended to s.
func waitSynced(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st := s.Stats(); st.Synced != st.Appends; st = s.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("sync loop stalled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkable is a SyncDelay hook that, once armed, parks every call
// until release, announcing it on parked.
type parkable struct {
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
}

func newParkable(armed bool) *parkable {
	p := &parkable{parked: make(chan struct{}, 16), release: make(chan struct{})}
	p.armed.Store(armed)
	return p
}

func (p *parkable) delay() {
	if p.armed.Load() {
		p.parked <- struct{}{}
		<-p.release
	}
}

func (p *parkable) unpark() { p.once.Do(func() { close(p.release) }) }

// TestRoundTrip: accepted jobs with shard prefixes survive a close and
// replay exactly; finished jobs are compacted away.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, st := openT(t, dir, Options{})
	if len(st.Pending) != 0 || st.Restarts != 0 || st.MaxID != 0 {
		t.Fatalf("fresh state: %+v", st)
	}

	req1 := json.RawMessage(`{"type":"campaign","seeds":30}`)
	req2 := json.RawMessage(`{"type":"difftest","seeds":10}`)
	if err := s.AcceptJob(1, req1, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AcceptJob(2, req2, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.AppendShard(1, i, json.RawMessage(`{"shard":`+string(rune('0'+i))+`}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FinishJob(2, true, "done\n", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st2 := openT(t, dir, Options{})
	defer s2.Close()
	if st2.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", st2.Restarts)
	}
	if st2.MaxID != 2 {
		t.Errorf("MaxID = %d, want 2", st2.MaxID)
	}
	if st2.FinishedJobs != 1 {
		t.Errorf("FinishedJobs = %d, want 1", st2.FinishedJobs)
	}
	if len(st2.Pending) != 1 {
		t.Fatalf("Pending = %+v, want just job 1", st2.Pending)
	}
	p := st2.Pending[0]
	if p.ID != 1 || string(p.Req) != string(req1) || len(p.Shards) != 5 {
		t.Fatalf("pending job: id=%d req=%s shards=%d", p.ID, p.Req, len(p.Shards))
	}
	if string(p.Shards[3]) != `{"shard":3}` {
		t.Errorf("shard 3 = %s", p.Shards[3])
	}
	if st2.ResumedShards != 5 {
		t.Errorf("ResumedShards = %d, want 5", st2.ResumedShards)
	}
}

// TestRestartCounting: each reopen of an existing journal adds one
// restart record, accumulated across compactions.
func TestRestartCounting(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(0); want < 4; want++ {
		s, st := openT(t, dir, Options{})
		if st.Restarts != want {
			t.Fatalf("open %d: Restarts = %d, want %d", want, st.Restarts, want)
		}
		s.Close()
	}
}

// TestTornTailDropped: a partial last line (the SIGKILL signature) is
// dropped; everything durably synced before it survives.
func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	if err := s.AcceptJob(7, json.RawMessage(`{"type":"campaign","seeds":3}`), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendShard(7, 0, json.RawMessage(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, s)
	s.Abandon()

	// Simulate the torn write a kill leaves behind.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"shard","job":7,"i":1,"da`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, st := openT(t, dir, Options{})
	defer s2.Close()
	if !st.TornTail {
		t.Error("torn tail not reported")
	}
	if len(st.Pending) != 1 || len(st.Pending[0].Shards) != 1 {
		t.Fatalf("state after torn tail: %+v", st)
	}
}

// TestAbandonLosesUnsyncedBatch: shard records still buffered when the
// store is abandoned vanish, exactly like a real SIGKILL — and the
// survivors are still a contiguous prefix. The sync loop is parked in
// the round that flushed shard 3; shards 4 and 5 are appended behind it
// and never leave the buffer.
func TestAbandonLosesUnsyncedBatch(t *testing.T) {
	dir := t.TempDir()
	p := newParkable(false)
	defer p.unpark()
	s, _ := openT(t, dir, Options{SyncDelay: p.delay})
	if err := s.AcceptJob(1, json.RawMessage(`{}`), ""); err != nil {
		t.Fatal(err)
	}
	shard := func(i int) {
		if err := s.AppendShard(1, i, json.RawMessage(`{"i":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		shard(i)
	}
	waitSynced(t, s)
	p.armed.Store(true)
	shard(3)
	<-p.parked // this round flushed shard 3 and waits on the disk
	shard(4)
	shard(5)
	s.Abandon()
	if err := s.AppendShard(1, 6, json.RawMessage(`{}`)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after abandon: %v, want ErrClosed", err)
	}

	_, st := openT(t, dir, Options{})
	if got := len(st.Pending[0].Shards); got != 4 {
		t.Fatalf("%d shards survive, want the synced 3 plus the flushed shard 3", got)
	}
}

// TestGroupCommit: appends never wait on the disk, and one fsync covers
// every record appended before it. With the sync loop parked in its
// first round, shard appends return at once and K admissions queue up;
// releasing the loop finishes them all with one more round.
func TestGroupCommit(t *testing.T) {
	const k = 8
	p := newParkable(true)
	s, _ := openT(t, t.TempDir(), Options{SyncDelay: p.delay})
	defer func() {
		p.unpark() // before Close, which waits for the parked round
		s.Close()
	}()

	errs := make(chan error, k+1)
	go func() { errs <- s.AcceptJob(1, json.RawMessage(`{}`), "") }()
	<-p.parked // round 1 covers job 1's accept and waits on the disk
	for i := 0; i < 4; i++ {
		if err := s.AppendShard(1, i, json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(2); id < k+2; id++ {
		go func() { errs <- s.AcceptJob(id, json.RawMessage(`{}`), "") }()
	}
	for s.Stats().Appends != 1+4+k {
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Syncs != 0 || st.Synced != 0 {
		t.Fatalf("a round completed while the disk was parked: %+v", st)
	}
	p.unpark()
	for range k + 1 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Syncs > 2 || st.Checkpoints != 1 || st.Synced != st.Appends {
		t.Fatalf("stats = %+v, want every record durable in at most 2 fsyncs, 1 of them with shards", st)
	}
}

// TestSyncErrorSticky: the first flush or fsync error sticks — the
// admission waiting on it, every later append, and Close return it.
func TestSyncErrorSticky(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	if err := s.AcceptJob(1, json.RawMessage(`{}`), ""); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.f.Close() // the disk goes away under the store
	s.mu.Unlock()
	first := s.AcceptJob(2, json.RawMessage(`{}`), "")
	if first == nil {
		t.Fatal("admission durable on a closed file")
	}
	if err := s.AppendShard(1, 0, json.RawMessage(`{}`)); err != first {
		t.Errorf("append after the failure = %v, want the sticky %v", err, first)
	}
	if err := s.FinishJob(1, true, "", ""); err != first {
		t.Errorf("finish after the failure = %v, want the sticky %v", err, first)
	}
	if err := s.Close(); err != first {
		t.Errorf("Close = %v, want the sticky %v", err, first)
	}
}

// TestSlowSyncHookRuns: the chaos fsync-delay hook is invoked on the
// sync path.
func TestSlowSyncHookRuns(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	s, _ := openT(t, dir, Options{SyncDelay: func() { calls++ }})
	if err := s.AcceptJob(1, json.RawMessage(`{}`), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("SyncDelay hook never ran")
	}
}

// TestCorruptRecordRejected: a malformed record that is NOT the torn
// tail fails the open loudly — resuming from a corrupt journal would
// silently drop work.
func TestCorruptRecordRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte("not json\n{\"t\":\"accept\",\"job\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open on corrupt journal: %v, want corrupt-journal error", err)
	}
}

// TestMaxIDSurvivesCompaction: compaction drops finished jobs' records,
// but the ID allocation floor must not regress with them — otherwise a
// reopened server would reuse a finished job's ID.
func TestMaxIDSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	if err := s.AcceptJob(9, json.RawMessage(`{}`), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishJob(9, true, "", ""); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// First reopen compacts job 9 away; MaxID must still be 9.
	s2, st := openT(t, dir, Options{})
	if st.MaxID != 9 {
		t.Fatalf("MaxID after compacting finished job = %d, want 9", st.MaxID)
	}
	s2.Close()

	// And it must keep surviving further compaction cycles.
	for i := 0; i < 3; i++ {
		s3, st3 := openT(t, dir, Options{})
		if st3.MaxID != 9 {
			t.Fatalf("cycle %d: MaxID = %d, want 9", i, st3.MaxID)
		}
		s3.Close()
	}
}

// TestStaleTmpIgnored: a kill during compaction leaves journal.ndjson.tmp
// behind (possibly garbage, possibly partial). The original journal is
// untouched until the rename, so Open must replay it fully and clobber
// the stale tmp.
func TestStaleTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	if err := s.AcceptJob(3, json.RawMessage(`{"type":"campaign","seeds":5}`), "acme"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendShard(3, 0, json.RawMessage(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for _, tmp := range []string{"garbage \x00 not json", `{"t":"acc`} {
		if err := os.WriteFile(filepath.Join(dir, journalName+".tmp"), []byte(tmp), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, st := openT(t, dir, Options{})
		if len(st.Pending) != 1 || st.Pending[0].ID != 3 || len(st.Pending[0].Shards) != 1 {
			t.Fatalf("tmp %q: state %+v, want job 3 with 1 shard", tmp, st)
		}
		if st.Pending[0].Tenant != "acme" {
			t.Errorf("tmp %q: tenant = %q, want acme", tmp, st.Pending[0].Tenant)
		}
		s2.Close()
	}
}

// TestLegacyDispatchAckIgnored: older fleet coordinators journaled
// "dispatch" and "ack" records around each shard range. Replay must
// ignore them like any unknown kind — the pending jobs, their shard
// prefixes and tenants, and the ID floor come out exactly as they did
// when those records were understood — and compaction drops them.
func TestLegacyDispatchAckIgnored(t *testing.T) {
	dir := t.TempDir()
	journal := strings.Join([]string{
		`{"t":"accept","job":1,"req":{"type":"campaign","seeds":8},"tenant":"acme"}`,
		`{"t":"dispatch","job":1,"to":4,"node":"http://w1"}`,
		`{"t":"dispatch","job":1,"from":4,"to":8,"node":"http://w2"}`,
		`{"t":"shard","job":1,"data":{"d":0}}`,
		`{"t":"shard","job":1,"i":1,"data":{"d":1}}`,
		`{"t":"ack","job":1,"to":4,"node":"http://w1"}`,
		`{"t":"dispatch","job":1,"from":4,"to":8,"node":"http://w1"}`,
		`{"t":"accept","job":2,"req":{}}`,
		`{"t":"dispatch","job":2,"to":2,"node":"http://w2"}`,
		`{"t":"finish","job":2,"ok":true}`,
		`{"t":"ack","job":9,"to":2,"node":"http://w2"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	for open := 0; open < 2; open++ { // the legacy journal, then its compaction
		s, st := openT(t, dir, Options{})
		if len(st.Pending) != 1 || st.MaxID != 9 {
			t.Fatalf("open %d: Pending = %+v, MaxID = %d; want just job 1, MaxID 9", open, st.Pending, st.MaxID)
		}
		p := st.Pending[0]
		if p.ID != 1 || p.Tenant != "acme" || len(p.Shards) != 2 ||
			string(p.Shards[0]) != `{"d":0}` || string(p.Shards[1]) != `{"d":1}` {
			t.Fatalf("open %d: pending job = %+v", open, p)
		}
		s.Close()
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"dispatch"`) || strings.Contains(string(data), `"ack"`) {
		t.Fatalf("compacted journal kept legacy records:\n%s", data)
	}
}

// TestStats: appends, syncs, shard-carrying syncs, and post-close
// losses are counted.
func TestStats(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	_ = s.AcceptJob(1, json.RawMessage(`{}`), "")
	if st := s.Stats(); st.Syncs != 1 || st.Checkpoints != 0 {
		t.Errorf("after the accept: stats = %+v, want 1 sync, no checkpoint", st)
	}
	_ = s.AppendShard(1, 0, json.RawMessage(`{}`))
	waitSynced(t, s)
	st := s.Stats()
	if st.Appends != 2 || st.Syncs != 2 || st.Checkpoints != 1 {
		t.Errorf("stats = %+v", st)
	}
	s.Abandon()
	_ = s.FinishJob(1, true, "", "")
	if got := s.Stats().Lost; got != 1 {
		t.Errorf("Lost = %d, want 1", got)
	}
}
