package node

import (
	"fmt"
	"sync"
	"time"

	"abdhfl"
	"abdhfl/internal/fault"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/trace"
	"abdhfl/internal/transport"
)

// Cluster backends.
const (
	BackendLoopback = "loopback"
	BackendTCP      = "tcp"
)

// ClusterOpts configures an in-process cluster run: every tree position
// plus the root as its own engine goroutine on its own endpoint, over the
// chosen backend. This is the harness the loopback≡TCP conformance tests
// drive; cmd/abdhfl-node is the same protocol with one engine per OS
// process.
type ClusterOpts struct {
	Materials *abdhfl.Materials
	Seed      uint64
	// Backend selects the wire: BackendLoopback or BackendTCP (loopback
	// when empty). TCP binds every endpoint on 127.0.0.1.
	Backend string
	// Plan drives both engine-level availability faults and transport
	// frame fates (restricted to FaultableKinds).
	Plan       *fault.Plan
	StallAfter time.Duration
	GlobalWait time.Duration
	Registry   *telemetry.Registry
	Tracer     *trace.Tracer
	QueueCap   int
}

// ClusterResult aggregates a cluster run: per-node engine results and wire
// stats, indexed by node id (the root last).
type ClusterResult struct {
	// Root is Results[len(Results)-1], the learning-run outcome.
	Root    *Result
	Results []*Result
	Stats   []transport.StatsSnapshot
	// Total sums Stats.
	Total transport.StatsSnapshot
}

// RunCluster runs one full distributed learning run in-process and returns
// every node's outcome. Endpoints close only after every engine finishes
// (a node done with its rounds may still owe relay traffic to a slower
// sibling's subtree), or as soon as one fails: the run returns that first
// error.
func RunCluster(opts ClusterOpts) (*ClusterResult, error) {
	if opts.Materials == nil {
		return nil, fmt.Errorf("node: nil materials")
	}
	tree := opts.Materials.Tree
	n := tree.NumDevices() + 1
	epCfg := func(id int) transport.Config {
		return transport.Config{
			Self:       transport.NodeID(id),
			Plan:       opts.Plan,
			FaultKinds: FaultableKinds(),
			Registry:   opts.Registry,
			Tracer:     opts.Tracer,
			QueueCap:   opts.QueueCap,
		}
	}
	endpoints := make([]transport.Endpoint, 0, n)
	switch opts.Backend {
	case BackendLoopback, "":
		lb := transport.NewLoopback()
		for id := 0; id < n; id++ {
			ep, err := lb.Attach(epCfg(id))
			if err != nil {
				closeEndpoints(endpoints)
				return nil, err
			}
			endpoints = append(endpoints, ep)
		}
	case BackendTCP:
		book := make(map[transport.NodeID]string, n)
		for id := 0; id < n; id++ {
			ep, err := transport.ListenTCP(epCfg(id), "127.0.0.1:0", nil)
			if err != nil {
				closeEndpoints(endpoints)
				return nil, err
			}
			endpoints = append(endpoints, ep)
			book[transport.NodeID(id)] = ep.Addr()
		}
		for _, ep := range endpoints {
			ep.(*transport.TCPEndpoint).ShareBook(book)
		}
	default:
		return nil, fmt.Errorf("node: unknown backend %q", opts.Backend)
	}

	// The first engine builds the run's shared state, the rest share it.
	engines := make([]*Engine, n)
	var sh *shared
	for id := 0; id < n; id++ {
		eng, err := New(Config{
			Materials:  opts.Materials,
			Seed:       opts.Seed,
			ID:         transport.NodeID(id),
			Endpoint:   endpoints[id],
			Plan:       opts.Plan,
			StallAfter: opts.StallAfter,
			GlobalWait: opts.GlobalWait,
			shared:     sh,
		})
		if err != nil {
			closeEndpoints(endpoints)
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
		engines[id], sh = eng, eng.sh
	}

	results, err := runEngines(engines, endpoints)
	if err != nil {
		return nil, err
	}
	out := &ClusterResult{
		Root:    results[n-1],
		Results: results,
		Stats:   make([]transport.StatsSnapshot, n),
	}
	for id, ep := range endpoints {
		out.Stats[id] = ep.Stats()
		out.Total.Add(out.Stats[id])
	}
	return out, nil
}

// runEngines runs every engine on its own goroutine and waits for all of
// them, then closes the endpoints. The first engine error closes them at
// once, so the engines still waiting on a peer return instead of waiting
// out their deadlines; that error, not the closed-transport errors it
// causes, is the one returned.
func runEngines(engines []*Engine, endpoints []transport.Endpoint) ([]*Result, error) {
	results := make([]*Result, len(engines))
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for id, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Run()
			if err != nil {
				once.Do(func() {
					first = fmt.Errorf("node %d: %w", id, err)
					closeEndpoints(endpoints)
				})
			}
			results[id] = res
		}()
	}
	wg.Wait()
	closeEndpoints(endpoints)
	return results, first
}

// closeEndpoints closes every endpoint concurrently: a TCP endpoint's Close
// waits on its own links draining, which need not wait on each other.
func closeEndpoints(endpoints []transport.Endpoint) {
	var wg sync.WaitGroup
	for _, ep := range endpoints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Close()
		}()
	}
	wg.Wait()
}
