package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/secure-wsn/qcomposite/internal/sweepserve"
)

// freePort reserves an ephemeral port and releases it for the daemon. The
// tiny reuse window is fine for a test on localhost.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches run() with the given flags as a real daemon would
// start, returning its exit-error channel.
func startDaemon(t *testing.T, args ...string) <-chan error {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	os.Args = append([]string{"sweepd"}, args...)
	errc := make(chan error, 1)
	go func() { errc <- run() }()
	return errc
}

func waitHealthy(t *testing.T, client *sweepserve.Client) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := client.Stats(ctx); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSigtermDrainAndRestart is the daemon's lifecycle smoke test: serve a
// job, take a SIGTERM, exit through the graceful drain path, then restart on
// the same journal and serve the identical job entirely from the restored
// store — the full crash-recovery story at the process level.
func TestSigtermDrainAndRestart(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout }()

	journal := filepath.Join(t.TempDir(), "sweepd.journal")
	spec := sweepserve.JobSpec{
		Kind:    sweepserve.KindConnectivity,
		Sensors: 30,
		Pool:    150,
		Trials:  10,
		Seed:    3,
		Grid:    sweepserve.GridSpec{Ks: []int{6, 9}, Qs: []int{1}, Ps: []float64{0.4, 0.8}},
	}
	ctx := context.Background()

	// Life 1: run a job to completion, then SIGTERM.
	addr := freePort(t)
	errc := startDaemon(t, "-addr", addr, "-journal", journal, "-drain", "5s")
	client := &sweepserve.Client{Base: "http://" + addr, Poll: 5 * time.Millisecond}
	waitHealthy(t, client)

	ack, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Wait(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != sweepserve.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	firstResult, err := client.Result(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exited with error after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain within 15s of SIGTERM")
	}

	// Life 2: same journal. The identical job must resolve fully from the
	// restored store — zero fresh computation — and return the same numbers.
	addr2 := freePort(t)
	errc2 := startDaemon(t, "-addr", addr2, "-journal", journal)
	client2 := &sweepserve.Client{Base: "http://" + addr2, Poll: 5 * time.Millisecond}
	waitHealthy(t, client2)

	stats, err := client2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4; stats.Store.Restored != want {
		t.Errorf("restart restored %d points, want %d", stats.Store.Restored, want)
	}
	ack2, err := client2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := client2.Wait(ctx, ack2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != sweepserve.StateDone || st2.Progress.Cached != 4 {
		t.Fatalf("restarted job should resolve all 4 points from the journal: %+v (%s)", st2, st2.Error)
	}
	secondResult, err := client2.Result(ctx, ack2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", secondResult) != fmt.Sprintf("%+v", firstResult) {
		t.Errorf("restarted result differs:\n got %+v\nwant %+v", secondResult, firstResult)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc2:
		if err != nil {
			t.Fatalf("second daemon exited with error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("second daemon did not drain")
	}
}

// TestStalledHeadersAreCut opens a connection that sends half a request
// header and stalls: the daemon's server must close it once
// readHeaderTimeout has passed, instead of holding it open.
func TestStalledHeadersAreCut(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/jobs HTTP/1.1\r\nHost: sweepd\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(3 * readHeaderTimeout)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}
