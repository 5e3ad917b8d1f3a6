package main

import (
	"fmt"
	"time"

	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
	"abdhfl/internal/transport"
)

// The node engine's layers. nn, aggregate, consensus and codec replay as on
// the round engine — the distributed run is the same computation, which the
// timed runs' check proves bit for bit — with every transfer made the node
// engine's way. The wire is probed apart: a cluster of endpoints brought up
// and torn down once, and a pair of them pushing frames of the run's mean
// size. On 127.0.0.1 what that times is processor time in the transport and
// the kernel's loopback path, not a network.

func (w *nodeRound) replay(rc *replayCtx) error {
	seed := rc.p.seed
	want, err := w.reference(seed)
	if err != nil {
		return err
	}
	var total transport.StatsSnapshot
	stalls, audits := 0, 0
	h := newHFLReplay(w.mat, true, false)
	var final tensor.Vector
	at, err := rc.attribute(
		func() error {
			res, err := w.cluster(w.mat, seed)
			if err != nil {
				return err
			}
			total, stalls, audits = res.Total, 0, len(res.Root.Audit)
			for _, r := range res.Results {
				stalls += r.Stalls
			}
			return nil
		},
		func(rec *recorder) (err error) {
			h.counts = replayCounts{}
			final, err = h.run(rec, seed)
			return err
		})
	if err != nil {
		return err
	}
	c := h.counts
	switch {
	case !bitsEqual(final, want):
		return fmt.Errorf("replay's final model differs from RunHFL's and the cluster's")
	case int64(c.frames) != total.FramesSent:
		return fmt.Errorf("replay sent %d frames, cluster %d", c.frames, total.FramesSent)
	case c.aggCalls+c.agreeCalls != audits:
		return fmt.Errorf("replay aggregated %d times, root's audit has %d steps", c.aggCalls+c.agreeCalls, audits)
	}

	rc.learnLayers(c, at.busy)
	rc.tensorKernels(c.trainSamples, at.busy["nn.train"])
	if err := rc.buildLayers(w.mat.Scenario); err != nil {
		return err
	}

	codecBusy := at.busy["codec.encode"] + at.busy["codec.decode"] + at.busy["codec.transcode"]
	pairs := float64(c.encodes+c.decodes)/2 + float64(c.transcodes)
	rc.set("codec.busy_s", codecBusy)
	rc.set("codec.transcode_us", 1e6*ratio(codecBusy, pairs))
	rc.set("codec.mb_per_s", ratio(pairs*8*float64(h.dim)/1e6, codecBusy))
	rc.set("codec.wire_bytes_per_update", float64(w.mat.Codec.WireBytes(h.dim)))

	// The wire, at one processor like everything else in this pass.
	layers := at.layerBusy()
	if err := oneProcessor(func() error {
		up, err := clusterLifecycle(w.mat.Tree)
		if err != nil {
			return err
		}
		meanFrame := int(total.BytesSent / total.FramesSent)
		probe, err := framePush(meanFrame-transport.EncodedSize(0), c.frames/w.mat.Scenario.Rounds, rc.p.probeTime)
		if err != nil {
			return err
		}
		frameS := median(probe.frameS)
		steady := float64(c.frames - up.links)
		layers["transport"] = up.totalS + steady*frameS
		rc.set("transport.busy_s", layers["transport"])
		rc.set("transport.frame_us_p50", 1e6*frameS)
		rc.set("transport.frames_per_s", ratio(float64(probe.frames), probe.seconds))
		rc.set("transport.mb_per_s", ratio(float64(probe.frames)*float64(meanFrame)/1e6, probe.seconds))
		rc.set("transport.cluster_up_ms", 1e3*up.upS)
		return nil
	}); err != nil {
		return err
	}
	rounds := float64(w.mat.Scenario.Rounds)
	rc.set("transport.frames_per_round", float64(total.FramesSent)/rounds)
	rc.set("transport.bytes_per_round", float64(total.BytesSent)/rounds)
	rc.set("transport.dupes_suppressed", float64(total.DupesSuppressed))
	rc.set("transport.reconnects", float64(total.Reconnects))
	rc.set("transport.send_errors", float64(total.SendErrors))

	// The price of distribution: the same materials on the round engine, at
	// the default processor count like the timed node runs.
	var core []float64
	for i := 0; i < 2*rc.p.refRuns; i++ {
		t0 := time.Now()
		if _, err := w.mat.RunHFL(seed); err != nil {
			return err
		}
		core = append(core, time.Since(t0).Seconds())
	}
	rc.set("node.vs_core_ratio", ratio(rc.m.runP50(), median(core)))
	rc.set("node.stalls", float64(stalls))
	rc.timed("node.run_s_tail", "node.allocs_per_run")
	rc.finish("node.unattributed_share", at.runS, layers)
	rc.absent("core", "pipeline", "simnet", "experiments", "telemetry", "trace")
	return nil
}

// clusterUp is one bring-up and tear-down of a cluster's endpoints.
type clusterUp struct {
	upS    float64 // listen on every endpoint + first frame over every link
	totalS float64 // the same plus closing every endpoint
	links  int
}

// protocolLinks lists the directed links a fault-free run uses: member →
// leader and back for every cluster, level-1 leader → root and back.
func protocolLinks(tree *topology.Tree) [][2]int {
	var links [][2]int
	root := tree.NumDevices()
	for lvl := 1; lvl <= tree.Bottom(); lvl++ {
		for _, c := range tree.Clusters[lvl] {
			for _, m := range c.Members {
				if m != c.Leader {
					links = append(links, [2]int{m, c.Leader}, [2]int{c.Leader, m})
				}
			}
			if lvl == 1 {
				links = append(links, [2]int{c.Leader, root}, [2]int{root, c.Leader})
			}
		}
	}
	return links
}

// clusterLifecycle does the transport work every RunCluster call does besides
// moving the run's frames: one listener per tree position plus the root, a
// dial and first frame on every link, and the close.
func clusterLifecycle(tree *topology.Tree) (clusterUp, error) {
	const kind = 1
	n := tree.NumDevices() + 1
	links := protocolLinks(tree)
	t0 := time.Now()
	eps := make([]*transport.TCPEndpoint, 0, n)
	closeAll := func() {
		for _, ep := range eps {
			ep.Close()
		}
	}
	for id := 0; id < n; id++ {
		ep, err := transport.ListenTCP(transport.Config{Self: transport.NodeID(id)}, "127.0.0.1:0", nil)
		if err != nil {
			closeAll()
			return clusterUp{}, err
		}
		eps = append(eps, ep)
	}
	queues := make([]*transport.Queue, n)
	expect := make([]int, n)
	for _, l := range links {
		expect[l[1]]++
	}
	for id, ep := range eps {
		for peer, other := range eps {
			if peer != id {
				ep.AddPeer(transport.NodeID(peer), other.Addr())
			}
		}
		queues[id] = ep.Bus().Subscribe(expect[id]+1, kind)
	}
	for _, l := range links {
		if err := eps[l[0]].Send(transport.NodeID(l[1]), &transport.Frame{Kind: kind}); err != nil {
			closeAll()
			return clusterUp{}, err
		}
	}
	timeout := time.After(30 * time.Second)
	for id, q := range queues {
		for i := 0; i < expect[id]; i++ {
			select {
			case <-q.C:
			case <-timeout:
				closeAll()
				return clusterUp{}, fmt.Errorf("cluster bring-up: node %d is still waiting for first frames", id)
			}
		}
	}
	up := clusterUp{upS: time.Since(t0).Seconds(), links: len(links)}
	closeAll()
	up.totalS = time.Since(t0).Seconds()
	return up, nil
}

// pushed is what framePush measured.
type pushed struct {
	frameS  []float64 // per batch: wall seconds ÷ frames
	frames  int
	seconds float64
}

// framePush sends batches of frames of the given payload size from one TCP
// endpoint to another for at least minTime and times each batch from its
// first Send to its last delivery. The connection is dialled by a frame sent
// before timing starts. A batch is one round's frames, so frame_us_p50 is
// the median over round-sized bursts, as the engine sends them.
func framePush(payload, batch int, minTime time.Duration) (pushed, error) {
	const kind = 1
	a, err := transport.ListenTCP(transport.Config{Self: 1}, "127.0.0.1:0", nil)
	if err != nil {
		return pushed{}, err
	}
	defer a.Close()
	b, err := transport.ListenTCP(transport.Config{Self: 2}, "127.0.0.1:0", nil)
	if err != nil {
		return pushed{}, err
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	q := b.Bus().Subscribe(batch+1, kind)
	f := transport.Frame{Kind: kind, Payload: make([]byte, payload)}
	burst := func(n int) error {
		for i := 0; i < n; i++ {
			f.Round = uint32(i)
			if err := a.Send(2, &f); err != nil {
				return err
			}
		}
		timeout := time.After(30 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case <-q.C:
			case <-timeout:
				return fmt.Errorf("frame push: %d of %d frames delivered", i, n)
			}
		}
		return nil
	}
	if err := burst(1); err != nil {
		return pushed{}, err
	}
	var p pushed
	start := time.Now()
	for time.Since(start) < minTime || len(p.frameS) == 0 {
		t0 := time.Now()
		if err := burst(batch); err != nil {
			return pushed{}, err
		}
		p.frameS = append(p.frameS, time.Since(t0).Seconds()/float64(batch))
		p.frames += batch
	}
	p.seconds = time.Since(start).Seconds()
	return p, nil
}
