package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/entrada"
	"dnscentral/internal/layers"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/pipeline"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/workload"
)

// frameReader serves captured frames from memory as a capture reader.
type frameReader struct {
	pkts []pcapio.Packet
	next int
}

func (f *frameReader) ReadPacket() (pcapio.Packet, error) {
	if f.next == len(f.pkts) {
		return pcapio.Packet{}, io.EOF
	}
	f.next++
	return f.pkts[f.next-1], nil
}

// discard counts what the trace generator emits.
type discard struct{ packets int }

func (d *discard) WritePacket(time.Time, []byte) error { d.packets++; return nil }

// captureLayers replays the first frames of the trace through the capture
// path's layers; follow adds the layers only the follow mode uses.
func (r *runner) captureLayers(res *runResult, in *captureInput, follow bool) error {
	m := res.metrics
	layersSpan := r.tr.begin(rootSpan, "layers")
	defer func() { r.tr.end(layersSpan, 1) }()
	n := r.sizes.replay

	// pcapio: read the frames (and keep copies for the layers below).
	f, err := os.Open(in.trace)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := pcapio.NewReader(f)
	if err != nil {
		return err
	}
	read := 0
	ns, _ := r.probe(layersSpan, "pcapio.read", n, func() {
		for ; read < n; read++ {
			if _, rerr := rd.ReadPacket(); rerr != nil {
				if rerr != io.EOF {
					err = rerr
				}
				return
			}
		}
	})
	if err != nil {
		return err
	}
	// The same frames again, kept this time: the reader reuses its buffer,
	// so each is copied, which the timed pass above must not pay for.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if rd, err = pcapio.NewReader(f); err != nil {
		return err
	}
	pkts := make([]pcapio.Packet, 0, read)
	for len(pkts) < read {
		pkt, err := rd.ReadPacket()
		if err != nil {
			return err
		}
		pkt.Data = append([]byte(nil), pkt.Data...)
		pkts = append(pkts, pkt)
	}
	m.set("pcapio.read_ns_per_pkt", ns*float64(n)/float64(max(read, 1)))
	n = read

	// layers, dnswire.View, astrie: the steps inside the analyzer.
	parser := layers.NewParser()
	payloads := make([][]byte, 0, n)
	flows := make([]layers.Flow, 0, n)
	ns, _ = r.probe(layersSpan, "layers.decode", n, func() {
		for _, p := range pkts {
			fl, derr := parser.Decode(p.Data)
			if derr == nil && fl.Proto == layers.IPProtoUDP {
				payloads = append(payloads, parser.Payload)
				flows = append(flows, fl)
			}
		}
	})
	m.set("layers.decode_ns_per_pkt", ns)
	var v dnswire.View
	name := make([]byte, 0, 256)
	ns, allocs := r.probe(layersSpan, "dnswire.view", len(payloads), func() {
		for _, p := range payloads {
			if v.Reset(p) != nil {
				continue
			}
			name, _, _, _ = v.Question(name[:0])
			_, _, _ = v.EDNS()
		}
	})
	m.set("dnswire.view_ns_per_msg", ns)
	m.set("dnswire.view_allocs", allocs)
	reg := astrie.NewRegistry(astrie.MaxASes - 20)
	ns, _ = r.probe(layersSpan, "astrie.lookup", len(flows), func() {
		for _, fl := range flows {
			reg.LookupAddr(fl.Src)
		}
	})
	m.set("astrie.lookup_ns", ns)
	shards := runtime.NumCPU()
	ns, _ = r.probe(layersSpan, "entrada.flowshard", n, func() {
		for _, p := range pkts {
			entrada.FlowShard(p.Data, shards)
		}
	})
	m.set("entrada.flowshard_ns", ns)

	// entrada: the analyzer itself, then what ends a run.
	an := entrada.NewAnalyzer(reg, entrada.WithZoneOrigin("nl"))
	ns, allocs = r.probe(layersSpan, "entrada.handle", n, func() {
		for _, p := range pkts {
			an.HandlePacket(p.Timestamp, p.Data)
		}
	})
	m.set("entrada.handle_ns_per_pkt", ns)
	m.set("entrada.allocs_per_pkt", allocs)
	if follow {
		const calls = 100
		ns, _ = r.probe(layersSpan, "entrada.querycounts", calls, func() {
			for i := 0; i < calls; i++ {
				an.QueryCounts()
			}
		})
		m.set("entrada.querycounts_us", ns/1000)
		var state []byte
		ns, _ = r.probe(layersSpan, "entrada.marshal_state", 1, func() { state, err = an.MarshalState() })
		if err != nil {
			return err
		}
		m.set("entrada.marshal_state_ms", ns/1e6)
		m.set("entrada.state_bytes", float64(len(state)))
		ns, _ = r.probe(layersSpan, "entrada.restore", 1, func() { _, err = entrada.RestoreAnalyzer(reg, state) })
		if err != nil {
			return err
		}
		m.set("entrada.restore_ms", ns/1e6)
	}
	var ag *entrada.Aggregates
	ns, _ = r.probe(layersSpan, "entrada.finish", 1, func() { ag = an.Finish() })
	m.set("entrada.finish_ms", ns/1e6)
	ns, _ = r.probe(layersSpan, "entrada.report", 1, func() { err = entrada.BuildReport(ag, reg).WriteJSON(io.Discard) })
	if err != nil {
		return err
	}
	m.set("entrada.report_ms", ns/1e6)

	// pipeline: the drivers around the analyzer.
	opts := pipeline.Options{Registry: reg, AnalyzerOpts: []entrada.Option{entrada.WithZoneOrigin("nl")}}
	run := func(name string, o pipeline.Options) (float64, error) {
		var rerr error
		ns, _ := r.probe(layersSpan, name, n, func() {
			_, _, rerr = pipeline.Run(context.Background(), []pcapio.PacketReader{&frameReader{pkts: pkts}}, o)
		})
		return 1e9 / ns, rerr
	}
	if !follow {
		o := opts
		o.Workers = 1
		rate, err := run("pipeline.run_w1", o)
		if err != nil {
			return err
		}
		m.set("pipeline.run_w1_pkts_per_s", rate)
		o.Workers = shards
		if rate, err = run("pipeline.run_wN", o); err != nil {
			return err
		}
		m.set("pipeline.run_wN_pkts_per_s", rate)
		o.Telemetry = telemetry.New()
		if rate, err = run("pipeline.run_telemetry", o); err != nil {
			return err
		}
		m.set("pipeline.run_telemetry_pkts_per_s", rate)
	} else {
		// The stream driver follows a file, so the frames go back to disk.
		part := filepath.Join(in.dir, "part.pcap")
		pf, err := os.Create(part)
		if err != nil {
			return err
		}
		w := pcapio.NewWriter(pf, pcapio.WithNanosecondResolution())
		for _, p := range pkts {
			if err := w.WritePacket(p.Timestamp, p.Data); err != nil {
				pf.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			pf.Close()
			return err
		}
		if err := pf.Close(); err != nil {
			return err
		}
		// The stream ends when the file has been quiet for idle; that wait
		// is not work and is taken off.
		const idle = 50 * time.Millisecond
		stream := func(name, ckDir string) (float64, error) {
			var serr error
			sp := r.tr.begin(layersSpan, name)
			_, _, serr = pipeline.RunStream(context.Background(), part, pipeline.StreamOptions{
				Options: opts, Window: r.sizes.follow.window, CheckpointDir: ckDir, IdleExit: idle, Poll: time.Millisecond,
			})
			d := r.tr.end(sp, int64(n)) - idle
			return float64(n) / d.Seconds(), serr
		}
		rate, err := stream("pipeline.stream", "")
		if err != nil {
			return err
		}
		m.set("pipeline.stream_pkts_per_s", rate)
		if rate, err = stream("pipeline.stream_ckpt", filepath.Join(in.dir, "probe-checkpoint")); err != nil {
			return err
		}
		m.set("pipeline.stream_ckpt_pkts_per_s", rate)

		ctx, cancel := context.WithCancel(context.Background())
		fr := pcapio.NewFollowReader(ctx, part, pcapio.FollowIdleExit(idle), pcapio.FollowPoll(time.Millisecond))
		got := 0
		ns, _ = r.probe(layersSpan, "pcapio.follow_read", n, func() {
			for got < n {
				if _, rerr := fr.ReadPacket(); rerr != nil {
					err = rerr
					return
				}
				got++
			}
		})
		cancel()
		fr.Close()
		if err != nil {
			return fmt.Errorf("follow reader after %d of %d packets: %w", got, n, err)
		}
		m.set("pcapio.follow_read_ns_per_pkt", ns)
	}

	// workload: the generator behind set-up.
	gen, err := workload.NewGenerator(workload.Config{
		Vantage: cloudmodel.Vantage("nl"), Week: cloudmodel.Week("w2020"),
		TotalQueries: n, ResolverScale: 0.01, Seed: r.seed, Workers: shards,
	})
	if err != nil {
		return err
	}
	sink := &discard{}
	ns, _ = r.probe(layersSpan, "workload.generate", n, func() { _, err = gen.Run(sink) })
	if err != nil {
		return err
	}
	m.set("workload.generate_events_per_s", 1e9/ns)

	// The cost stack: what the layers above explain of a packet's CPU time.
	pktsTotal := float64(res.Attempted)
	rows := []stackRow{}
	if !follow {
		perRun := pktsTotal / float64(len(res.Detail["passes"].([]pass)))
		rows = append(rows,
			stackRow{"pcapio.read_ns_per_pkt", 1, 0},
			stackRow{"entrada.flowshard_ns", 1, 0},
			stackRow{"entrada.handle_ns_per_pkt", 1, 0},
			stackRow{"layers.decode_ns_per_pkt", 1, 1},
			stackRow{"dnswire.view_ns_per_msg", float64(len(payloads)) / float64(n), 1},
			stackRow{"astrie.lookup_ns", float64(len(flows)) / float64(n), 1},
			stackRow{"entrada.finish_ms", 1 / perRun, 0},
			stackRow{"entrada.report_ms", 1 / perRun, 0},
		)
	} else {
		passes := res.Detail["passes"].([]pass)
		perRun := pktsTotal / float64(len(passes))
		windows := float64(passes[0].Windows)
		rows = append(rows,
			stackRow{"pcapio.follow_read_ns_per_pkt", 1, 0},
			stackRow{"entrada.handle_ns_per_pkt", 1, 0},
			stackRow{"layers.decode_ns_per_pkt", 1, 1},
			stackRow{"dnswire.view_ns_per_msg", float64(len(payloads)) / float64(n), 1},
			stackRow{"astrie.lookup_ns", float64(len(flows)) / float64(n), 1},
			stackRow{"entrada.querycounts_us", windows / perRun, 0},
			stackRow{"entrada.marshal_state_ms", windows / 4 / perRun, 0},
			stackRow{"entrada.finish_ms", 1 / perRun, 0},
			stackRow{"entrada.report_ms", 1 / perRun, 0},
		)
	}
	costStack(res, rows)
	return nil
}
