// Package smoke holds process-level smoke tests: each boots the real
// binaries the way an operator would and drives them from the outside. They
// are gated behind environment variables so the regular `go test ./...`
// stays hermetic and fast; the Makefile exposes each as its own target.
package smoke

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer/tcp"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// TestResizeSmoke is `make resize-smoke`: it boots a broker, two named
// invalidb-server processes, and a coordinator, then performs a live
// query-partition resize with the one-shot CLI while writes flow, and
// asserts that no notification was dropped or duplicated and that the
// maintained result matches the quiesced pull query (DESIGN.md §13). The
// in-process equivalent runs in internal/chaostest on every `go test`; this
// test exists to prove the same guarantee across real process boundaries.
func TestResizeSmoke(t *testing.T) {
	if os.Getenv("RESIZE_SMOKE") == "" {
		t.Skip("set RESIZE_SMOKE=1 (or run `make resize-smoke`) to boot the multi-process smoke")
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"invalidb/cmd/eventlayerd", "invalidb/cmd/invalidb-server", "invalidb/cmd/invalidb-coordinator")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binaries: %v", err)
	}

	addr := freeAddr(t)
	spawn(t, filepath.Join(bin, "eventlayerd"), "-addr", addr, "-stats", "0")
	waitDialable(t, addr)
	spawn(t, filepath.Join(bin, "invalidb-server"), "-broker", addr, "-node", "a", "-qp", "2", "-wp", "2", "-stats", "0")
	spawn(t, filepath.Join(bin, "invalidb-server"), "-broker", addr, "-node", "b", "-qp", "2", "-wp", "2", "-stats", "0")
	spawn(t, filepath.Join(bin, "invalidb-coordinator"), "-broker", addr, "-qp", "2", "-wp", "2", "-stats", "1s")

	// The application server runs in-process so the test can audit its
	// notification ledger; it speaks to the grid over the same TCP broker
	// the server processes use.
	bus, err := tcp.Dial(addr, tcp.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()
	db := storage.Open(storage.Options{})
	srv, err := appserver.New(db, bus, appserver.Options{
		Tenant:               "default",
		EventBuffer:          4096,
		Backfill:             true,
		BackfillChunkSize:    64,
		BackfillChunkTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	epoch := func() float64 { return srv.Metrics().Snapshot().Gauges["appserver.epoch"] }
	waitFor(t, "initial partition map", 30*time.Second, func() bool { return epoch() >= 1 })

	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, err := srv.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		adds    = map[string]int{}
		errs    int
		initial bool
	)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range sub.C() {
			mu.Lock()
			switch ev.Type {
			case appserver.EventInitial:
				initial = true
			case appserver.EventAdd:
				adds[ev.Key]++
			case appserver.EventError:
				errs++
			}
			mu.Unlock()
		}
	}()
	waitFor(t, "initial result", 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return initial
	})

	// ~200 writes/s; the resize lands a third of the way through the stream.
	const n = 150
	for i := 0; i < n; i++ {
		if i == n/3 {
			out, err := exec.Command(filepath.Join(bin, "invalidb-coordinator"),
				"-broker", addr, "-resize", "qp").CombinedOutput()
			if err != nil {
				t.Fatalf("one-shot resize: %v\n%s", err, out)
			}
		}
		if err := srv.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "v": int64(i)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	waitFor(t, "resize epoch", 30*time.Second, func() bool { return epoch() >= 2 })
	waitFor(t, "result convergence", 30*time.Second, func() bool {
		want, err := srv.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		delivered := len(adds)
		mu.Unlock()
		return delivered >= n && len(sub.Result()) == len(want)
	})
	time.Sleep(200 * time.Millisecond) // let straggling duplicates land before auditing
	_ = sub.Close()
	<-drained

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%03d", i)
		switch c := adds[key]; {
		case c == 0:
			t.Errorf("key %s: notification dropped", key)
		case c > 1:
			t.Errorf("key %s: %d add events, want 1 (duplicated notification)", key, c)
		}
	}
	if errs != 0 {
		t.Errorf("saw %d error events, want 0", errs)
	}
	t.Logf("resize-smoke: %d writes across a live QP resize, %d keys delivered exactly once, %d errors", n, len(adds), errs)
}

// spawn starts a binary and guarantees it is killed when the test ends.
func spawn(t *testing.T, path string, args ...string) {
	t.Helper()
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", filepath.Base(path), err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
}

// freeAddr grabs an ephemeral loopback port for the broker.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

func waitDialable(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.Dial("tcp", addr); err == nil {
			_ = c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("broker at %s never accepted a connection", addr)
}

func waitFor(t *testing.T, what string, timeout time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
