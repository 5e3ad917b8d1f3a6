package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"abdhfl"
	"abdhfl/internal/fault"
	"abdhfl/internal/node"
)

// TestClusterSmoke is the end-to-end multi-process check: it builds the
// abdhfl-node binary, spawns a real 7-process cluster (1 root, 2 leaders,
// 4 plain devices) on loopback TCP with a fault plan active, and asserts
// the root completes all global rounds, writes a coherent result, and
// every process exits cleanly. Skipped under -short (it compiles and runs
// OS processes).
func TestClusterSmoke(t *testing.T) {
	runClusterSmoke(t, "voting")
}

// TestClusterSmokeABA repeats the 7-process run with the randomized
// common-coin ABA deciding at the root, so the proposal/ballot exchange
// (frame kinds 4 and 5) crosses real process and socket boundaries while
// the drop+duplicate plan is chewing on exactly those kinds.
func TestClusterSmokeABA(t *testing.T) {
	runClusterSmoke(t, "aba")
}

func runClusterSmoke(t *testing.T, topProtocol string) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	dir := t.TempDir()

	bin := filepath.Join(dir, "abdhfl-node")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Levels 2, ClusterSize 3, TopNodes 2: devices 0-5 in two bottom
	// clusters led by 0 and 3, root id 6 — seven processes.
	s := abdhfl.Scenario{
		Levels: 2, ClusterSize: 3, TopNodes: 2,
		Rounds: 3, LocalIters: 1, BatchSize: 8, LearningRate: 0.05,
		SamplesPerClient: 16, TestSamples: 40, ValidationSamples: 24,
		Aggregator: "multi-krum", TopProtocol: topProtocol,
		Codec:     "delta-int8", // codec in the path: WireBytes accounting is live
		EvalEvery: 1, Seed: 11, Workers: 1,
	}.WithDefaults()
	const procs = 7

	scenarioPath := filepath.Join(dir, "scenario.json")
	sf, err := os.Create(scenarioPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := abdhfl.WriteScenario(sf, s); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	cluster := make(map[string]string, procs)
	for id, addr := range freePorts(t, procs) {
		cluster[fmt.Sprint(id)] = addr
	}
	clusterPath := writeJSONFile(t, dir, "cluster.json", cluster)

	// An active fault plan: drops and duplicates on the uplink, so the run
	// exercises dupe suppression and stall-and-continue across real
	// process boundaries, not just the happy path.
	planPath := writeJSONFile(t, dir, "plan.json", fault.Plan{
		Seed: 5, Drop: 0.1, Duplicate: 0.2,
	})

	resultPath := filepath.Join(dir, "result.json")
	statsPath := filepath.Join(dir, "stats.json")
	type proc struct {
		id     int
		cmd    *exec.Cmd
		stderr bytes.Buffer
		err    error
	}
	ps := make([]*proc, procs)
	for id := 0; id < procs; id++ {
		args := []string{
			"-scenario", scenarioPath, "-cluster", clusterPath, "-plan", planPath,
			"-id", fmt.Sprint(id), "-stall", "1s", "-q",
		}
		if id == procs-1 {
			args = append(args, "-result", resultPath, "-stats", statsPath)
		}
		p := &proc{id: id, cmd: exec.Command(bin, args...)}
		p.cmd.Stderr = &p.stderr
		ps[id] = p
	}
	var wg sync.WaitGroup
	for _, p := range ps {
		if err := p.cmd.Start(); err != nil {
			t.Fatalf("start node %d: %v", p.id, err)
		}
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.err = p.cmd.Wait()
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		for _, p := range ps {
			p.cmd.Process.Kill()
		}
		<-done
		for _, p := range ps {
			t.Logf("node %d stderr:\n%s", p.id, p.stderr.String())
		}
		t.Fatal("cluster did not finish within 120s")
	}
	for _, p := range ps {
		if p.err != nil {
			t.Errorf("node %d exited with %v:\n%s", p.id, p.err, p.stderr.String())
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	raw, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatalf("root wrote no result: %v", err)
	}
	var res node.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	if len(res.Curve) != s.Rounds {
		t.Errorf("curve has %d points, want %d rounds", len(res.Curve), s.Rounds)
	}
	if len(res.FinalParams) == 0 {
		t.Error("result carries no final model")
	}
	if res.FinalAccuracy <= 0 || res.FinalAccuracy > 1 {
		t.Errorf("final accuracy %v out of range", res.FinalAccuracy)
	}
	if res.Comm.ModelTransfers == 0 || res.Comm.WireBytes == 0 {
		t.Errorf("σ-accounting empty: %+v", res.Comm)
	}
	if len(res.Audit) == 0 {
		t.Error("no filter audit reassembled at the root")
	}

	var stats map[string]int64
	statsRaw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("root wrote no stats: %v", err)
	}
	if err := json.Unmarshal(statsRaw, &stats); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if stats["frames_sent"] == 0 || stats["frames_delivered"] == 0 {
		t.Errorf("root wire counters empty: %v", stats)
	}
}

// freePorts returns n loopback addresses the cluster's processes can bind.
// A port bound and released at ":0" comes from the kernel's ephemeral
// range, where any other ":0" bind (another package's test endpoint) may
// take it before the process binds it; so the ports are picked below that
// range, from a random start, each checked to bind and released.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	const floor = 1024 // the first unprivileged port
	low := 32768       // Linux's default start of the ephemeral range
	if raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(raw)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				low = v
			}
		}
	}
	span := low - floor
	if span < 4*n {
		t.Skipf("the ephemeral range starts at port %d, leaving too few ports below it", low)
	}
	addrs := make([]string, 0, n)
	start := rand.IntN(span)
	for i := 0; i < span && len(addrs) < n; i++ {
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(floor+(start+i)%span))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	if len(addrs) < n {
		t.Fatalf("only %d of %d ports below %d bind", len(addrs), n, low)
	}
	return addrs
}

func writeJSONFile(t *testing.T, dir, name string, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
