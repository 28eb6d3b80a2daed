package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-resume"}, // without -store-dir
	} {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestForceExitOnSecondSignal: the first signal (ctx cancel) must
// restore default signal handling, arming the immediate-exit path for
// a second SIGTERM.
func TestForceExitOnSecondSignal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	restored := make(chan struct{})
	forceExitOnSecondSignal(ctx, func() { close(restored) })
	select {
	case <-restored:
		t.Fatal("signal handling restored before the first signal")
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case <-restored:
	case <-time.After(10 * time.Second):
		t.Fatal("signal handling never restored after the first signal")
	}
}

// TestServeModeDurableFlags: -store-dir/-resume reach the server — the
// startup log reports the journal, and the journal file exists after a
// clean shutdown.
func TestServeModeDurableFlags(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	var stderr bytes.Buffer
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-store-dir", dir, "-resume"}, &stderr)
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("durable serve mode: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("durable serve mode did not drain on cancel")
	}
	if !strings.Contains(stderr.String(), "journal "+dir) {
		t.Errorf("startup log does not mention the journal:\n%s", stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.ndjson")); err != nil {
		t.Errorf("journal file missing after shutdown: %v", err)
	}
}

func TestServeModeDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	var stderr bytes.Buffer
	go func() { errc <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &stderr) }()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve mode: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve mode did not drain on cancel")
	}
	if !strings.Contains(stderr.String(), "drained, bye") {
		t.Errorf("serve log:\n%s", stderr.String())
	}
}
