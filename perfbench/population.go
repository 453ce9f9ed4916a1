package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"pftk/internal/multiflow"
	"pftk/internal/sim"
)

// The population workload: one op is one run of N=1000 symmetric Reno
// flows at N x 20 pkts/s through one drop-tail bottleneck, the largest
// population of the multiflow experiment. Nearly all of its time is the
// event engine on one goroutine, so changes to the engine, its heap or
// trace retention show here and not in the paper workload.
const (
	populationFlows   = 1000
	warmupFlows       = 100
	perFlowRate       = 20.0 // pkts/s, each flow's fair share
	populationSeconds = 200.0
	minJain           = 0.98
)

// populationConfig is the multiflow experiment's configuration for n
// flows, seeded from the workload seed.
func populationConfig(n int, seed uint64) multiflow.Config {
	return multiflow.Config{
		Flows: multiflow.SymmetricFlows(n, multiflow.FlowSpec{
			RTT:    0.08,
			Wm:     64,
			MinRTO: 0.5,
		}),
		Bottleneck: multiflow.Bottleneck{
			Rate:     perFlowRate * float64(n),
			QueueCap: 5 * n,
			OneWay:   0.04,
		},
		Duration: populationSeconds,
		Seed:     seed + uint64(1000+n),
	}
}

// popOut is what an op keeps of its result.
type popOut struct {
	fingerprint string
	jain        float64
	events      uint64
	packets     int64
	poolSlots   int
}

// fingerprint hashes every field multiflow.Result.Digest covers, the
// per-flow traces in binary form. Digest formats each of the ~10^7
// trace records as text and takes twice as long as the run itself.
func fingerprint(r multiflow.Result) string {
	h := sha256.New()
	_, _ = fmt.Fprintf(h, "dur %v flows %d\n", r.Duration, len(r.Flows))
	var buf []byte
	for _, f := range r.Flows {
		_, _ = fmt.Fprintf(h, "flow %d %s rate %v thr %v p %v rtt %v pred %v link %+v\n",
			f.ID, f.Variant, f.Rate, f.Throughput, f.P, f.MeanRTT, f.Predicted, f.Link)
		_, _ = fmt.Fprintf(h, "stats %+v delivered %d\n", f.Result.Stats, f.Result.Delivered)
		buf = buf[:0]
		for _, rec := range f.Result.Trace {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Time))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Kind))
			buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
			buf = binary.LittleEndian.AppendUint64(buf, rec.Ack)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Val))
		}
		_, _ = h.Write(buf)
	}
	_, _ = fmt.Fprintf(h, "fair %+v\n", r.Fairness)
	return hex.EncodeToString(h.Sum(nil))
}

func summarize(r multiflow.Result, eng *sim.Engine) popOut {
	o := popOut{fingerprint: fingerprint(r), jain: r.Fairness.Jain, events: eng.Fired(), poolSlots: eng.PoolSize()}
	for _, f := range r.Flows {
		o.packets += int64(f.Result.Stats.TotalSent())
	}
	return o
}

// populationRun is one op in the three calls the benchmark times:
// build and start, run the engine, finish. It returns the reduction of
// the result for the check, to be run after the timing stops.
func populationRun(cfg multiflow.Config, tr *tracer) func() popOut {
	root := tr.begin("population.run", 0, 0)
	op := root.id
	var eng sim.Engine
	sp := tr.begin("multiflow.build", op, op)
	m := multiflow.New(&eng, cfg)
	m.Start()
	tr.end(sp)
	sp = tr.begin("sim.run", op, op)
	eng.RunUntil(cfg.Duration)
	tr.end(sp)
	sp = tr.begin("multiflow.finish", op, op)
	res := m.Finish()
	tr.end(sp)
	tr.end(root)
	return func() popOut { return summarize(res, &eng) }
}

func runPopulation(cfg runConfig) (*outcome, error) {
	// Set-up: generate the inputs and warm the engine with a tenth of
	// the population, so the first timed op is not the process's first
	// run.
	pc := populationConfig(populationFlows, cfg.seed)
	populationRun(populationConfig(warmupFlows, cfg.seed), nil)()
	if cfg.setupOnly {
		ready()
		return &outcome{}, nil
	}

	out := &outcome{}
	var outs []popOut
	op := func(tr *tracer) func() func() {
		return func() func() {
			reduce := populationRun(pc, tr)
			return func() { outs = append(outs, reduce()) }
		}
	}
	lat := timeOps(cfg.half(), op(nil))
	out.p50, out.p90, out.rates = quantile(lat, 0.5), quantile(lat, 0.9), inverse(lat)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.rssMB = rss

	if cfg.traced {
		mem := startMem()
		tlat := timeOps(cfg.half(), op(cfg.spans))
		allocMB, gcs := mem.perOp(len(tlat))
		out.tracedRates = inverse(tlat)
		spans := cfg.spans.snapshot()
		n := float64(len(tlat))
		last := outs[len(outs)-1]
		run := total(spans, "sim.run") / n
		out.layer = map[string]float64{
			"reno.packets":       float64(last.packets),
			"sim.events":         float64(last.events),
			"multiflow.build_s":  total(spans, "multiflow.build") / n,
			"sim.run_s":          run,
			"sim.ns_per_event":   run * 1e9 / float64(last.events),
			"sim.pool_slots":     float64(last.poolSlots),
			"multiflow.finish_s": total(spans, "multiflow.finish") / n,
			"go.alloc_mb":        allocMB,
			"go.gc_cycles":       gcs,
		}
		addOverhead(out)
	}

	// Output check: each op must reproduce multiflow.Run on the same
	// config, stay fair, and repeat the first op's counts.
	want := fingerprint(multiflow.Run(pc))
	out.attempted = len(outs)
	for i, o := range outs {
		switch {
		case o.fingerprint != want:
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("FAILED: run %d fingerprint %.12s, multiflow.Run %.12s", i, o.fingerprint, want))
		case o.jain < minJain:
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("FAILED: run %d Jain %.4f < %v", i, o.jain, minJain))
		case o.events != outs[0].events || o.packets != outs[0].packets:
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("FAILED: run %d counts %d events %d packets, run 0 %d/%d",
				i, o.events, o.packets, outs[0].events, outs[0].packets))
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("population: %d runs, %d events and %d packets per run, Jain %.4f, untraced runs took %.3f s",
		len(outs), outs[0].events, outs[0].packets, outs[0].jain, lat))
	return out, nil
}
