package server

import (
	"sync/atomic"
	"testing"
	"time"

	"uexc/internal/harness"
)

// TestDrainWaitsForMidCheckpointJob: SIGTERM arriving while a job's
// journal fsync is parked must not tear the journal or the job: the
// job's finish record waits for the disk, Drain waits for the job, the
// fsync lands, the job finishes, and the client still gets the
// complete stream.
func TestDrainWaitsForMidCheckpointJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	const seeds = 2
	want := golden(t, TypeCampaign, seeds)

	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, base := startTest(t, Config{
		Workers: 1, QueueDepth: 2,
		StoreDir: t.TempDir(),
		// Once armed, the next journal fsync parks until released — the
		// drain signal lands exactly mid-fsync.
		storeSyncDelay: func() {
			if !armed.Load() {
				return
			}
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		},
		// Slow every shard slightly so fsyncs keep coming while the test
		// arms the trap.
		shardFault: func(job uint64, shard, attempt int) ShardFault {
			return ShardFault{Stall: 5 * time.Millisecond}
		},
	})

	clientDone := make(chan streamed, 1)
	go func() {
		st, _ := tryPost(base, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 1, Verbose: true})
		clientDone <- st
	}()

	waitMetric(t, "first checkpoint", func() bool { return s.snapshot().Checkpoints >= 1 })
	armed.Store(true)
	<-entered // a journal fsync is now parked

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	select {
	case <-drained:
		t.Fatal("Drain returned while a journal fsync was still parked")
	case <-time.After(20 * time.Millisecond):
	}

	armed.Store(false)
	close(release)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain never returned after the fsync was released")
	}
	st := <-clientDone
	if !st.complete || !st.ok {
		t.Fatalf("job across a mid-fsync drain: %+v", st)
	}
	if st.output != want {
		t.Errorf("stream differs from the undisturbed run\n--- got ---\n%s--- golden ---\n%s",
			st.output, want)
	}
	if got := s.snapshot().JobsOK; got != 1 {
		t.Errorf("JobsOK = %d, want 1", got)
	}
}

// TestClientDisconnectDuringReplayStream: a client re-attaching to a
// resumed job and hanging up while the journal-replayed prefix is
// still streaming must not disturb the job — it completes, and a later
// attach gets the full byte-identical stream.
func TestClientDisconnectDuringReplayStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns across a kill")
	}
	const seeds = 4
	dir := t.TempDir()
	want := golden(t, TypeCampaign, seeds)

	// Incarnation A: stall a late shard to pin the campaign mid-flight,
	// then kill once some shards are durable.
	stallShard := harness.CampaignShards(seeds) - 2
	s1, base1, kill1 := crashable(t, Config{
		Workers: 1, QueueDepth: 2,
		StoreDir: dir,
		shardFault: func(job uint64, shard, attempt int) ShardFault {
			if shard == stallShard {
				return ShardFault{Stall: 30 * time.Second}
			}
			return ShardFault{}
		},
	})
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		tryPost(base1, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 2, Verbose: true})
	}()
	waitMetric(t, "durable shards before kill", func() bool { return durableShards(s1) >= 3 })
	kill1()
	<-posted

	// Incarnation B: resume, with every live shard slowed so the
	// replayed prefix streams while the job is still running.
	s2, base2 := startTest(t, Config{
		Workers: 1, QueueDepth: 2,
		StoreDir: dir, Resume: true,
		shardFault: func(job uint64, shard, attempt int) ShardFault {
			return ShardFault{Stall: 5 * time.Millisecond}
		},
	})
	if got := s2.snapshot().ReplayedJobs; got != 1 {
		t.Fatalf("ReplayedJobs = %d, want 1", got)
	}

	// Attach, sip two replayed events, and hang up mid-replay.
	abandon(t, attach(t, base2, 1), 2)

	// The job must still run to completion, undisturbed.
	waitMetric(t, "job completes after disconnect", func() bool { return s2.snapshot().JobsOK == 1 })
	if got := s2.snapshot().JobsCancelled; got != 0 {
		t.Errorf("JobsCancelled = %d, want 0", got)
	}

	st := reattach(t, base2, 1)
	if !st.complete || !st.ok {
		t.Fatalf("final attach incomplete: %+v", st)
	}
	if st.output != want {
		t.Errorf("resumed stream differs from the undisturbed run\n--- got ---\n%s--- golden ---\n%s",
			st.output, want)
	}
}
