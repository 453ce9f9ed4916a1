// Package multiflow runs N concurrent flows — mixed TCP Reno/Tahoe/
// NewReno variants and TFRC — on one simulation engine, either through
// one shared bottleneck link (the regime the mean-field analyses of
// interacting TCP flows predict) or over disjoint per-flow paths (the
// lockstep baseline, byte-identical to N independent single-flow runs).
//
// The shared-bottleneck wiring follows the demultiplexing inherent in
// the link layer: every Send carries its own delivery callback, so N
// senders share one netem.Link without any extra routing machinery, and
// the typed packet union's Flow field attributes per-flow link counters
// and lets a receiver discard packets that are not its own.
//
// Determinism: for a fixed Config (including seeds) a run is
// byte-reproducible — per-flow RNG streams are forked from the config
// seed by flow index, and all flows share the engine's single event
// order.
package multiflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"pftk/internal/core"
	"pftk/internal/netem"
	"pftk/internal/pkt"
	"pftk/internal/reno"
	"pftk/internal/sim"
	"pftk/internal/tfrc"
	"pftk/internal/trace"
)

// FlowSpec describes one sender in a multi-flow simulation, in the same
// vocabulary as the single-flow SimConfig.
type FlowSpec struct {
	// Variant selects the flow's congestion control: "reno" (default),
	// "tahoe", "newreno", "linux", "irix" or "tfrc".
	Variant string
	// RTT is the flow's two-way propagation delay in seconds (default
	// 0.1). On a shared bottleneck the forward direction contributes
	// the bottleneck's one-way delay; the reverse link supplies the
	// remainder.
	RTT float64
	// LossRate is a per-flow random loss probability applied on the
	// flow's access path, before the shared bottleneck (Bernoulli, or
	// a timed burst when BurstDur > 0). Congestive loss at the shared
	// queue comes on top.
	LossRate float64
	// BurstDur is the loss-outage duration in seconds (0 = isolated
	// single-packet losses).
	BurstDur float64
	// Wm is the receiver's advertised window in packets (default 64).
	Wm int
	// MinRTO floors the retransmission timeout (default 1 s).
	MinRTO float64
	// AckEvery is the receiver's delayed-ACK ratio b (default 2).
	AckEvery int
	// Start delays the flow's first transmission (seconds from run
	// start).
	Start float64
	// Seed fixes the flow's private random streams; 0 derives one from
	// the run seed and the flow index.
	Seed uint64
}

// Bottleneck describes the shared link all flows traverse. A
// non-positive Rate disables sharing: each flow then runs over its own
// private path (disjoint mode).
type Bottleneck struct {
	// Rate is the transmission rate in packets per second.
	Rate float64
	// QueueCap is the drop-tail queue capacity in packets.
	QueueCap int
	// OneWay is the bottleneck's propagation delay in seconds.
	OneWay float64
	// RED manages the queue with Random Early Detection instead of
	// drop-tail.
	RED bool
}

// Config describes a multi-flow run.
type Config struct {
	Flows      []FlowSpec
	Bottleneck Bottleneck
	// Duration is the run length in simulated seconds (default 100).
	Duration float64
	// Seed derives per-flow seeds for flows that leave Seed zero, and
	// drives the shared RED controller when enabled.
	Seed uint64
}

// FlowResult is one flow's measured outcome.
type FlowResult struct {
	// ID is the flow's index in Config.Flows and its packet Flow stamp.
	ID int
	// Variant echoes the spec.
	Variant string
	// Result carries the TCP result (trace, sender stats, delivered);
	// zero-valued for TFRC flows, which have no sender-side trace.
	Result reno.Result
	// Rate is the flow's send rate in packets per second (originals +
	// retransmissions; paced sends for TFRC).
	Rate float64
	// Throughput is distinct packets delivered per second.
	Throughput float64
	// P is the measured loss-indication rate (loss events per packet
	// for TFRC).
	P float64
	// MeanRTT is the average of the flow's RTT samples (the TFRC
	// sender's smoothed estimate), falling back to the spec's
	// propagation RTT when no sample was taken.
	MeanRTT float64
	// Predicted is the 1/(RTT·sqrt(2bp/3)) TD-only model rate at the
	// measured P and MeanRTT; 0 when P is 0 (the model diverges).
	Predicted float64
	// Link counts the flow's packets at the shared bottleneck
	// (zero-valued in disjoint mode).
	Link netem.FlowStats
}

// Fairness aggregates the run: Jain's index and per-flow rates against
// the TD-only model predictions.
type Fairness struct {
	// Jain is Jain's fairness index over per-flow send rates: 1 for a
	// perfectly even split, 1/n when one flow takes everything.
	Jain float64
	// AggregateRate is the sum of per-flow send rates (pkts/s).
	AggregateRate float64
	// Utilization is AggregateRate over the bottleneck rate; 0 in
	// disjoint mode.
	Utilization float64
	// Rates are the per-flow send rates, indexed by flow ID.
	Rates []float64
	// Predicted are the per-flow TD-only model rates at each flow's
	// measured loss rate and RTT (0 where the flow saw no loss).
	Predicted []float64
}

// Result is the outcome of a multi-flow run.
type Result struct {
	// Duration is the simulated run length in seconds.
	Duration float64
	Flows    []FlowResult
	Fairness Fairness
}

func (s FlowSpec) normalize() FlowSpec {
	if s.Variant == "" {
		s.Variant = "reno"
	}
	if s.RTT <= 0 {
		s.RTT = 0.1
	}
	return s
}

// renoVariant resolves a TCP flow's variant; callers handle "tfrc"
// first.
func (s FlowSpec) renoVariant() reno.Variant {
	v, ok := reno.VariantByName(s.Variant)
	if !ok {
		panic(fmt.Sprintf("multiflow: unknown variant %q (valid: %s, tfrc)", s.Variant, reno.VariantNames))
	}
	return v
}

// flowSeed derives flow i's seed when the spec leaves it zero, forking
// the run seed by flow index so adding a flow never perturbs the
// others' streams.
func flowSeed(runSeed uint64, i int, spec FlowSpec) uint64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	return sim.NewRNG(runSeed).Fork(fmt.Sprintf("flow.%d", i)).Uint64()
}

// lossModel builds the flow's private loss process from its own seed,
// with the same fork label the single-flow facade uses so disjoint-mode
// flows reproduce independent runs byte for byte.
func lossModel(spec FlowSpec, seed uint64) netem.LossModel {
	rng := sim.NewRNG(seed)
	switch {
	case spec.LossRate <= 0:
		return nil
	case spec.BurstDur > 0:
		return netem.NewTimedBurst(spec.LossRate, spec.BurstDur, rng.Fork("loss"))
	default:
		return netem.NewBernoulli(spec.LossRate, rng.Fork("loss"))
	}
}

// flow is the per-flow runtime state while the engine runs.
type flow struct {
	spec FlowSpec
	conn *reno.Connection // TCP flows
	tfrc *tfrc.Flow       // TFRC flows
}

// Engine is a multi-flow simulation bound to one sim.Engine. Build it
// with New, start it with Run (or drive the engine yourself between
// Start and Finish for mid-run probes).
type Engine struct {
	cfg   Config
	eng   *sim.Engine
	fwd   *netem.Link // shared bottleneck; nil in disjoint mode
	flows []flow
}

// New wires the flows onto eng according to cfg. The engine is ready to
// run but no flow has started.
func New(eng *sim.Engine, cfg Config) *Engine {
	if cfg.Duration <= 0 {
		cfg.Duration = 100
	}
	m := &Engine{cfg: cfg, eng: eng}
	shared := cfg.Bottleneck.Rate > 0
	var sharedPath reno.DataPath
	if shared {
		lcfg := netem.LinkConfig{
			Rate:     cfg.Bottleneck.Rate,
			QueueCap: cfg.Bottleneck.QueueCap,
			Delay:    netem.ConstantDelay(cfg.Bottleneck.OneWay),
		}
		if cfg.Bottleneck.RED {
			red := netem.NewREDLink(eng, lcfg, sim.NewRNG(cfg.Seed).Fork("red"))
			m.fwd = red.Link
			sharedPath = red
		} else {
			m.fwd = netem.NewLink(eng, lcfg)
			sharedPath = m.fwd
		}
		m.fwd.EnablePerFlowStats(len(cfg.Flows))
	}

	for i, spec := range cfg.Flows {
		spec = spec.normalize()
		seed := flowSeed(cfg.Seed, i, spec)
		loss := lossModel(spec, seed)
		if !shared {
			m.flows = append(m.flows, m.buildDisjoint(i, spec, loss))
			continue
		}
		m.flows = append(m.flows, m.buildShared(i, spec, loss, sharedPath))
	}
	for _, f := range m.flows {
		if f.conn != nil {
			f.conn.Sender.SetTraceStop(m.cfg.Duration)
		}
	}
	return m
}

// buildDisjoint gives flow i a private symmetric path, replicating the
// single-flow facade's construction exactly — the basis of the lockstep
// oracle.
func (m *Engine) buildDisjoint(i int, spec FlowSpec, loss netem.LossModel) flow {
	pathCfg := netem.SymmetricPath(spec.RTT/2, loss)
	if spec.Variant == "tfrc" {
		path := netem.NewPath(m.eng, pathCfg)
		f := tfrc.NewFlow(m.eng, path, tfrc.Config{FlowID: int32(i)})
		return flow{spec: spec, tfrc: f}
	}
	cfg := reno.ConnConfig{
		Sender: reno.SenderConfig{
			Variant: spec.renoVariant(),
			RWnd:    spec.Wm,
			MinRTO:  spec.MinRTO,
			FlowID:  int32(i),
		},
		Receiver: reno.ReceiverConfig{AckEvery: spec.AckEvery, FlowID: int32(i)},
		Path:     pathCfg,
	}
	return flow{spec: spec, conn: reno.NewConnection(m.eng, cfg)}
}

// buildShared attaches flow i to the shared bottleneck: the forward
// direction is the common link (behind the flow's private access-loss
// wrapper when configured), the reverse direction a private delay link
// carrying the remainder of the flow's propagation RTT.
func (m *Engine) buildShared(i int, spec FlowSpec, loss netem.LossModel, shared reno.DataPath) flow {
	revDelay := spec.RTT - m.cfg.Bottleneck.OneWay
	if revDelay < 0 {
		revDelay = 0
	}
	rev := netem.NewLink(m.eng, netem.LinkConfig{Delay: netem.ConstantDelay(revDelay)})
	forward := shared
	if loss != nil {
		forward = &lossyPath{eng: m.eng, next: shared, loss: loss}
	}
	if spec.Variant == "tfrc" {
		f := tfrc.NewFlowOnLinks(m.eng, forward, rev, tfrc.Config{FlowID: int32(i)})
		return flow{spec: spec, tfrc: f}
	}
	snd := reno.NewSender(m.eng, forward, reno.SenderConfig{
		Variant: spec.renoVariant(),
		RWnd:    spec.Wm,
		MinRTO:  spec.MinRTO,
		FlowID:  int32(i),
	})
	rcv := reno.NewReceiver(m.eng, rev, snd.OnAck, reno.ReceiverConfig{AckEvery: spec.AckEvery, FlowID: int32(i)})
	snd.SetDeliver(rcv.OnPacket)
	return flow{spec: spec, conn: &reno.Connection{Eng: m.eng, Sender: snd, Receiver: rcv}}
}

// lossyPath drops packets with the flow's private loss process before
// they reach the shared bottleneck — random loss on the access path, as
// distinct from congestive loss at the shared queue.
type lossyPath struct {
	eng  *sim.Engine
	next reno.DataPath
	loss netem.LossModel
}

func (l *lossyPath) Send(p pkt.Packet, deliver func(pkt.Packet)) {
	if l.loss.Drop(l.eng.Now()) {
		return
	}
	l.next.Send(p, deliver)
}

// Start launches every flow: flows with a zero Start offset begin
// immediately (in flow order), later ones on the engine's event queue.
func (m *Engine) Start() {
	for i := range m.flows {
		f := &m.flows[i]
		start := func() {
			if f.tfrc != nil {
				f.tfrc.Start()
			} else {
				f.conn.Sender.Start()
			}
		}
		if f.spec.Start > 0 {
			m.eng.Schedule(f.spec.Start, start)
		} else {
			start()
		}
	}
}

// SenderRates returns each flow's cumulative send count divided by
// elapsed, for mid-run fairness probes.
func (m *Engine) SenderRates(elapsed float64) []float64 {
	rates := make([]float64, len(m.flows))
	if elapsed <= 0 {
		return rates
	}
	for i := range m.flows {
		rates[i] = float64(m.sent(i)) / elapsed
	}
	return rates
}

func (m *Engine) sent(i int) int {
	if f := &m.flows[i]; f.tfrc != nil {
		return f.tfrc.Sent()
	}
	return m.flows[i].conn.Sender.Stats().TotalSent()
}

// Bottleneck returns the shared forward link, or nil in disjoint mode.
func (m *Engine) Bottleneck() *netem.Link { return m.fwd }

// Finish stops every flow and assembles the result at the engine's
// current time.
func (m *Engine) Finish() Result {
	now := m.eng.Now()
	res := Result{Duration: now}
	for i := range m.flows {
		f := &m.flows[i]
		fr := FlowResult{ID: i, Variant: f.spec.normalize().Variant}
		if f.tfrc != nil {
			f.tfrc.Stop()
			fr.Rate = float64(f.tfrc.Sent()) / now
			fr.Throughput = float64(f.tfrc.Received()) / now
			fr.P = f.tfrc.LossEventRate()
			fr.MeanRTT = f.spec.RTT
		} else {
			f.conn.Sender.Stop()
			st := f.conn.Sender.Stats()
			fr.Result = reno.Result{
				Duration:  now,
				Trace:     f.conn.Sender.Trace(),
				Stats:     st,
				Delivered: f.conn.Receiver.Delivered(),
			}
			fr.Rate = fr.Result.SendRate()
			fr.Throughput = fr.Result.Throughput()
			fr.P = fr.Result.LossIndicationRate()
			fr.MeanRTT = meanRTT(fr.Result.Trace, f.spec.RTT)
		}
		if fr.P > 0 && fr.MeanRTT > 0 {
			b := f.spec.AckEvery
			if b < 1 {
				b = 2
			}
			fr.Predicted = core.SendRateTDOnly(fr.P, fr.MeanRTT, float64(b))
		}
		if m.fwd != nil {
			fr.Link = m.fwd.FlowStats(i)
		}
		res.Flows = append(res.Flows, fr)
	}
	res.Fairness = fairness(res.Flows, m.cfg.Bottleneck.Rate)
	return res
}

// meanRTT averages the trace's Karn-filtered round samples, falling
// back to the propagation RTT when the flow never took a sample.
func meanRTT(tr trace.Trace, fallback float64) float64 {
	var sum float64
	var n int
	for _, r := range tr {
		if r.Kind == trace.KindRoundSample {
			sum += r.Val
			n++
		}
	}
	if n == 0 {
		return fallback
	}
	return sum / float64(n)
}

// fairness computes Jain's index and the aggregate statistics over the
// per-flow send rates.
func fairness(flows []FlowResult, bottleneckRate float64) Fairness {
	f := Fairness{
		Rates:     make([]float64, len(flows)),
		Predicted: make([]float64, len(flows)),
	}
	var sum, sq float64
	for i, fr := range flows {
		f.Rates[i] = fr.Rate
		f.Predicted[i] = fr.Predicted
		sum += fr.Rate
		sq += fr.Rate * fr.Rate
	}
	f.AggregateRate = sum
	if sq > 0 && len(flows) > 0 {
		f.Jain = sum * sum / (float64(len(flows)) * sq)
	}
	if bottleneckRate > 0 {
		f.Utilization = sum / bottleneckRate
	}
	return f
}

// Jain computes Jain's fairness index over a rate vector: 1 when all
// rates are equal, 1/n when a single flow takes everything, 0 for an
// empty or all-zero vector.
func Jain(rates []float64) float64 {
	var sum, sq float64
	for _, r := range rates {
		sum += r
		sq += r * r
	}
	if sq == 0 || len(rates) == 0 || math.IsNaN(sum) {
		return 0
	}
	return sum * sum / (float64(len(rates)) * sq)
}

// Digest hashes every observable output of the run — each flow's trace,
// counters, delivery count and bottleneck attribution, plus the
// aggregate fairness statistics. Two executions of the same Config must
// digest identically, whether they ran serially or on concurrent
// engines: the multi-flow determinism contract in one string.
func (r Result) Digest() string {
	h := sha256.New()
	_, _ = fmt.Fprintf(h, "dur %v flows %d\n", r.Duration, len(r.Flows))
	for _, f := range r.Flows {
		_, _ = fmt.Fprintf(h, "flow %d %s rate %v thr %v p %v rtt %v pred %v link %+v\n",
			f.ID, f.Variant, f.Rate, f.Throughput, f.P, f.MeanRTT, f.Predicted, f.Link)
		_, _ = fmt.Fprintf(h, "stats %+v delivered %d\n", f.Result.Stats, f.Result.Delivered)
		for i := range f.Result.Trace {
			_, _ = fmt.Fprintf(h, "%v\n", f.Result.Trace[i])
		}
	}
	_, _ = fmt.Fprintf(h, "fair %+v\n", r.Fairness)
	return hex.EncodeToString(h.Sum(nil))
}

// Run builds a fresh engine for cfg, runs it for cfg.Duration simulated
// seconds and returns the per-flow and aggregate results.
func Run(cfg Config) Result {
	var eng sim.Engine
	m := New(&eng, cfg)
	m.Start()
	eng.RunUntil(cfg.Duration)
	return m.Finish()
}

// SymmetricFlows returns n identical flow specs — the symmetric
// shared-bottleneck population of the fairness experiments.
func SymmetricFlows(n int, template FlowSpec) []FlowSpec {
	flows := make([]FlowSpec, n)
	for i := range flows {
		flows[i] = template
	}
	return flows
}
