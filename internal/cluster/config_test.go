package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bandana/internal/server"
)

func serverMaxBatchIDs() int { return server.MaxBatchIDs }

func twoNodeConfig() *Config {
	return &Config{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "a", Addr: "http://127.0.0.1:1", Role: RolePrimary},
			{ID: "b", Addr: "http://127.0.0.1:2", Role: RolePrimary},
		},
	}
}

// configCases are the memberships TestConfigValidation checks, as mutations
// of twoNodeConfig; FuzzClusterConfig starts from them too.
var configCases = []struct {
	name    string
	mutate  func(*Config)
	wantErr string
}{
	{"valid", func(c *Config) {}, ""},
	{"no nodes", func(c *Config) { c.Nodes = nil }, "no nodes"},
	{"duplicate id", func(c *Config) { c.Nodes[1].ID = "a" }, "duplicate node id"},
	{"missing id", func(c *Config) { c.Nodes[0].ID = "" }, "no id"},
	{"bad addr", func(c *Config) { c.Nodes[0].Addr = "127.0.0.1:8080" }, "invalid addr"},
	{"bad role", func(c *Config) { c.Nodes[0].Role = "standby" }, "unknown role"},
	{"no primaries", func(c *Config) {
		c.Nodes[0].Role, c.Nodes[0].ReplicaOf = RoleReplica, "b"
		c.Nodes[1].Role, c.Nodes[1].ReplicaOf = RoleReplica, "a"
	}, "no primary"},
	{"replica chain", func(c *Config) {
		c.Nodes = append(c.Nodes, Node{ID: "c", Addr: "http://127.0.0.1:3", Role: RoleReplica, ReplicaOf: "d"},
			Node{ID: "d", Addr: "http://127.0.0.1:4", Role: RoleReplica, ReplicaOf: "a"})
	}, "not a primary"},
	{"replica without target", func(c *Config) { c.Nodes[1].Role = RoleReplica }, "must set replicaOf"},
	{"replica of unknown", func(c *Config) {
		c.Nodes[1].Role, c.Nodes[1].ReplicaOf = RoleReplica, "ghost"
	}, "unknown node"},
	{"primary with replicaOf", func(c *Config) { c.Nodes[0].ReplicaOf = "b" }, "must not set replicaOf"},
	{"replica pins partitions", func(c *Config) {
		c.Nodes[1].Role, c.Nodes[1].ReplicaOf = RoleReplica, "a"
		c.Nodes[1].Partitions = map[string][]int{"t": {0}}
	}, "must not pin"},
	{"double pin", func(c *Config) {
		c.Nodes[0].Partitions = map[string][]int{"t": {3}}
		c.Nodes[1].Partitions = map[string][]int{"t": {3}}
	}, "pinned to both"},
	{"negative pin", func(c *Config) {
		c.Nodes[0].Partitions = map[string][]int{"t": {-1}}
	}, "negative partition"},
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range configCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := twoNodeConfig()
			tc.mutate(cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestRendezvousDeterministicAndStable pins the two properties routing
// correctness rests on: the same config always derives the same owners, and
// removing one node only moves the partitions that node owned.
func TestRendezvousDeterministicAndStable(t *testing.T) {
	cfg := &Config{
		IDRangeSize: 16,
		Nodes: []Node{
			{ID: "a", Addr: "http://h:1", Role: RolePrimary},
			{ID: "b", Addr: "http://h:2", Role: RolePrimary},
			{ID: "c", Addr: "http://h:3", Role: RolePrimary},
		},
	}
	const parts = 256
	owners := make([]string, parts)
	for p := 0; p < parts; p++ {
		owner, err := cfg.Owner("tbl", uint32(p)*cfg.IDRangeSize)
		if err != nil {
			t.Fatal(err)
		}
		owners[p] = owner
	}
	// Deterministic across rebuilds.
	for p := 0; p < parts; p++ {
		again, _ := cfg.Owner("tbl", uint32(p)*cfg.IDRangeSize)
		if again != owners[p] {
			t.Fatalf("partition %d: owner changed across rebuilds (%s vs %s)", p, owners[p], again)
		}
	}
	// Roughly balanced: each of 3 nodes should own a sane share.
	counts := map[string]int{}
	for _, o := range owners {
		counts[o]++
	}
	for id, n := range counts {
		if n < parts/6 || n > parts/2 {
			t.Fatalf("node %s owns %d of %d partitions (badly unbalanced: %v)", id, n, parts, counts)
		}
	}
	// Minimal disruption: drop node c; a/b-owned partitions must not move.
	smaller := &Config{IDRangeSize: 16, Nodes: cfg.Nodes[:2]}
	for p := 0; p < parts; p++ {
		owner, err := smaller.Owner("tbl", uint32(p)*cfg.IDRangeSize)
		if err != nil {
			t.Fatal(err)
		}
		if owners[p] != "c" && owner != owners[p] {
			t.Fatalf("partition %d moved from %s to %s although its owner never left", p, owners[p], owner)
		}
	}
}

// TestExplicitPinOverridesRendezvous checks the operator drain path.
func TestExplicitPinOverridesRendezvous(t *testing.T) {
	cfg := twoNodeConfig()
	// Find a partition rendezvous gives to b, then pin it to a.
	pinned := -1
	for p := 0; p < 64; p++ {
		owner, err := cfg.Owner("tbl", uint32(p)*cfg.IDRangeSize)
		if err != nil {
			t.Fatal(err)
		}
		if owner == "b" {
			pinned = p
			break
		}
	}
	if pinned < 0 {
		t.Fatal("rendezvous gave node b nothing in 64 partitions")
	}
	cfg.Nodes[0].Partitions = map[string][]int{"tbl": {pinned}}
	owner, err := cfg.Owner("tbl", uint32(pinned)*cfg.IDRangeSize)
	if err != nil {
		t.Fatal(err)
	}
	if owner != "a" {
		t.Fatalf("pinned partition %d resolves to %s, want a", pinned, owner)
	}
}

func TestPartitionOf(t *testing.T) {
	cfg := twoNodeConfig() // IDRangeSize 64
	for _, tc := range []struct{ id, want uint32 }{{0, 0}, {63, 0}, {64, 1}, {1000, 15}} {
		if got := cfg.PartitionOf(tc.id); got != int(tc.want) {
			t.Fatalf("PartitionOf(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

// TestBatchLimitMatchesServer keeps the router-side and node-side bounds
// from drifting apart (they are deliberately not imported across tiers).
func TestBatchLimitMatchesServer(t *testing.T) {
	if MaxBatchIDs != serverMaxBatchIDs() {
		t.Fatalf("cluster.MaxBatchIDs (%d) != server.MaxBatchIDs (%d)", MaxBatchIDs, serverMaxBatchIDs())
	}
}

func ExampleConfig_PartitionOf() {
	cfg := &Config{IDRangeSize: 1024}
	fmt.Println(cfg.PartitionOf(5000))
	// Output: 4
}

// FuzzClusterConfig: whatever bytes a membership file holds, LoadConfig
// either rejects them or returns a config the router can route with — it
// validates again, builds a routing state, and resolves every id of every
// table it names to a primary. Seeds are the memberships the cluster tests
// check, written as files, and the torn file the router's SIGHUP test
// writes.
func FuzzClusterConfig(f *testing.F) {
	seeds := []*Config{{
		IDRangeSize: 64,
		Nodes: []Node{
			{ID: "p", Addr: "http://127.0.0.1:1", WireAddr: "127.0.0.1:11", Role: RolePrimary, Partitions: map[string][]int{"t": {0, 2}}},
			{ID: "q", Addr: "http://127.0.0.1:2", Role: RolePrimary},
			{ID: "r", Addr: "http://127.0.0.1:3", WireAddr: "127.0.0.1:13", Role: RoleReplica, ReplicaOf: "p"},
		},
	}}
	for _, tc := range configCases {
		cfg := twoNodeConfig()
		tc.mutate(cfg)
		seeds = append(seeds, cfg)
	}
	for _, cfg := range seeds {
		raw, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, uint32(130))
	}
	f.Add([]byte(`{"nodes": [`), uint32(0))

	f.Fuzz(func(t *testing.T, raw []byte, id uint32) {
		path := filepath.Join(t.TempDir(), "cluster.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, err := LoadConfig(path)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("LoadConfig returned a config Validate rejects: %v", err)
		}
		st, err := newRoutingState(cfg)
		if err != nil {
			t.Fatalf("LoadConfig returned a config the router cannot route with: %v", err)
		}
		tables := []string{"t"}
		for _, n := range cfg.Nodes {
			for table := range n.Partitions {
				tables = append(tables, table)
			}
		}
		for _, table := range tables {
			for _, id := range []uint32{0, id, math.MaxUint32} {
				owner, err := cfg.Owner(table, id)
				if err != nil {
					t.Fatalf("Owner(%q, %d): %v", table, id, err)
				}
				if n := st.byID[owner]; n == nil || n.Role != RolePrimary {
					t.Fatalf("Owner(%q, %d) = %q, not a primary of the membership", table, id, owner)
				}
			}
		}
	})
}
