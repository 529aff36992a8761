package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bandana/internal/cluster"
)

// routerChildEnv names the cluster file; set, it turns TestRouterMainChild
// into the router process.
const routerChildEnv = "BANDANA_ROUTER_CHILD_CLUSTER"

// TestRouterMainChild is main() in a subprocess (this test binary
// re-executed by TestSIGHUPReloadsMembership) on port 0. It ends when its
// stdin closes, so it cannot outlive the parent. Skipped in normal runs.
func TestRouterMainChild(t *testing.T) {
	path := os.Getenv(routerChildEnv)
	if path == "" {
		t.Skip("router child only runs under TestSIGHUPReloadsMembership")
	}
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	os.Args = []string{"bandana-router", "--addr", "127.0.0.1:0", "--cluster", path}
	main()
}

// TestSIGHUPReloadsMembership drives the one thing only the binary has: the
// signal handler. A rewritten cluster file plus SIGHUP must show up in
// /v1/stats as one reload and the new node count; a malformed file plus
// SIGHUP must be rejected and change nothing.
func TestSIGHUPReloadsMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a router process")
	}
	// Membership only: the router probes nodes under /v1/stats and a 404
	// there just marks them not alive.
	nodeA := httptest.NewServer(http.NotFoundHandler())
	defer nodeA.Close()
	nodeB := httptest.NewServer(http.NotFoundHandler())
	defer nodeB.Close()
	cfg := cluster.Config{
		IDRangeSize: 64,
		Nodes: []cluster.Node{
			{ID: "node-a", Addr: nodeA.URL, Role: cluster.RolePrimary},
			{ID: "node-b", Addr: nodeB.URL, Role: cluster.RolePrimary},
		},
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	writeCluster := func(c cluster.Config) {
		t.Helper()
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeCluster(cfg)

	cmd := exec.Command(os.Args[0], "-test.run", "^TestRouterMainChild$")
	cmd.Env = append(os.Environ(), routerChildEnv+"="+path)
	if _, err := cmd.StdinPipe(); err != nil { // held open until the child is reaped
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var addr string
			if n, _ := fmt.Sscanf(sc.Text(), "bandana-router listening on %s", &addr); n == 1 {
				listening <- addr
			}
		}
	}()
	rejected := make(chan struct{}, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, sc.Text())
			if strings.Contains(sc.Text(), "SIGHUP reload rejected") {
				rejected <- struct{}{}
			}
		}
	}()
	var base string
	select {
	case addr := <-listening:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("router child did not come up in 30s")
	}

	stats := func() (reloads int64, nodes int) {
		t.Helper()
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out cluster.RouterStats
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Cluster.Reloads, out.Cluster.Nodes
	}
	if reloads, nodes := stats(); reloads != 0 || nodes != 2 {
		t.Fatalf("fresh router: reloads=%d nodes=%d, want 0 and 2", reloads, nodes)
	}

	cfg.Nodes = cfg.Nodes[:1]
	writeCluster(cfg)
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		reloads, nodes := stats()
		if reloads == 1 && nodes == 1 {
			break
		}
		if reloads > 1 || time.Now().After(deadline) {
			t.Fatalf("after SIGHUP: reloads=%d nodes=%d, want 1 and 1", reloads, nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := os.WriteFile(path, []byte(`{"nodes": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rejected:
	case <-time.After(10 * time.Second):
		t.Fatal("router never reported rejecting the malformed cluster file")
	}
	if reloads, nodes := stats(); reloads != 1 || nodes != 1 {
		t.Fatalf("a rejected reload changed the router: reloads=%d nodes=%d, want 1 and 1", reloads, nodes)
	}
}
