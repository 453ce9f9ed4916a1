// Package hosts encodes the measurement infrastructure of the paper's
// Section III: the Table I host inventory (with the per-OS TCP variants
// the paper notes) and, for each of the 24 sender-receiver pairs of
// Table II, an emulated-path profile calibrated to the published per-pair
// statistics (average RTT, average T0, loss-indication rate, and the
// receiver windows given in the Fig. 7 captions).
//
// The real 1997-98 Internet paths are not reproducible; what the model
// validation needs from them is the tuple (p, RTT, T0, Wm) plus a bursty
// loss process, which these profiles supply. Paper-reported packet and
// loss counts are retained on each Pair so reports can print
// paper-vs-simulated columns side by side.
package hosts

import (
	"fmt"

	"pftk/internal/netem"
	"pftk/internal/reno"
	"pftk/internal/sim"
)

// Host is one row of Table I.
type Host struct {
	// Name is the short hostname.
	Name string
	// Domain is the DNS domain from Table I.
	Domain string
	// OS is the operating system string from Table I.
	OS string
	// Variant is the TCP flavor our simulator uses for this host when
	// it acts as a sender, following the paper's Section IV notes
	// (Linux: fast retransmit after 2 dupacks; Irix: 2^5 backoff cap;
	// SunOS 4.x: Tahoe-derived).
	Variant reno.Variant
}

// tableI is the paper's host inventory. HostByName reads it in place;
// TableI hands out copies so callers cannot edit it.
var tableI = [...]Host{
	{"ada", "hofstra.edu", "Irix 6.2", reno.Irix},
	{"afer", "cs.umn.edu", "Linux", reno.Linux},
	{"al", "cs.wm.edu", "Linux 2.0.31", reno.Linux},
	{"alps", "cc.gatech.edu", "SunOS 4.1.3", reno.Tahoe},
	{"babel", "cs.umass.edu", "SunOS 5.5.1", reno.Reno},
	{"baskerville", "cs.arizona.edu", "SunOS 5.5.1", reno.Reno},
	{"ganef", "cs.ucla.edu", "SunOS 5.5.1", reno.Reno},
	{"imagine", "cs.umass.edu", "win95", reno.Reno},
	{"manic", "cs.umass.edu", "Irix 6.2", reno.Irix},
	{"mafalda", "inria.fr", "SunOS 5.5.1", reno.Reno},
	{"maria", "wustl.edu", "SunOS 4.1.3", reno.Tahoe},
	{"modi4", "ncsa.uiuc.edu", "Irix 6.2", reno.Irix},
	{"pif", "inria.fr", "Solaris 2.5", reno.Reno},
	{"pong", "usc.edu", "HP-UX", reno.Reno},
	{"spiff", "sics.se", "SunOS 4.1.4", reno.Tahoe},
	{"sutton", "cs.columbia.edu", "SunOS 5.5.1", reno.Reno},
	{"tove", "cs.umd.edu", "SunOS 4.1.3", reno.Tahoe},
	{"void", "cs.umass.edu", "Linux 2.0.30", reno.Linux},
	{"att", "att.com", "Linux", reno.Linux},
}

// TableI returns a copy of the paper's host inventory.
func TableI() []Host { return append([]Host(nil), tableI[:]...) }

// HostByName returns the Table I host with the given name. It does not
// allocate: SenderVariant calls it for every simulated trace.
func HostByName(name string) (Host, bool) {
	for i := range tableI {
		if tableI[i].Name == name {
			return tableI[i], true
		}
	}
	return Host{}, false
}

// Pair is one sender-receiver path of the Table II campaign, with the
// paper's published statistics and the emulation parameters calibrated
// from them.
type Pair struct {
	// Sender and Receiver are Table I host names.
	Sender, Receiver string
	// RTT and T0 are the paper's per-trace averages (seconds).
	RTT, T0 float64
	// Wm is the receiver's advertised window in packets — from the
	// Fig. 7 captions where published, otherwise estimated from the
	// pair's TD fraction (mostly-timeout traces imply small windows).
	Wm int
	// WmPublished marks windows taken from the paper rather than
	// estimated.
	WmPublished bool
	// PaperPackets and PaperLoss are the "Packets Sent" and "Loss
	// Indic." columns of Table II.
	PaperPackets, PaperLoss int
	// PaperTD is the TD column of Table II.
	PaperTD int
	// DropRate is the calibrated per-packet loss-burst start
	// probability, initialized to the paper's p = PaperLoss/PaperPackets
	// and refined by Calibrate.
	DropRate float64
	// BurstDurOverride, when positive, replaces the heuristic outage
	// duration; Calibrate fits it to the pair's published TD fraction.
	BurstDurOverride float64
}

// P returns the paper's loss-indication rate for the pair.
func (p Pair) P() float64 {
	if p.PaperPackets == 0 {
		return 0
	}
	return float64(p.PaperLoss) / float64(p.PaperPackets)
}

// Name returns "sender-receiver", the label used on the paper's x axes.
func (p Pair) Name() string { return p.Sender + "-" + p.Receiver }

// TableII returns the 24 pairs of the 1-hour campaign with the paper's
// published statistics.
func TableII() []Pair {
	mk := func(snd, rcv string, pkts, loss, td int, rtt, t0 float64, wm int, pub bool) Pair {
		p := Pair{
			Sender: snd, Receiver: rcv,
			PaperPackets: pkts, PaperLoss: loss, PaperTD: td,
			RTT: rtt, T0: t0, Wm: wm, WmPublished: pub,
		}
		p.DropRate = p.P()
		return p
	}
	return []Pair{
		mk("manic", "alps", 54402, 722, 19, 0.207, 2.505, 6, false),
		mk("manic", "baskerville", 58120, 735, 306, 0.243, 2.495, 6, true), // Fig. 7(a)
		mk("manic", "ganef", 58924, 743, 272, 0.226, 2.405, 16, false),
		mk("manic", "mafalda", 56283, 494, 2, 0.233, 2.146, 5, false),
		mk("manic", "maria", 68752, 649, 1, 0.180, 2.416, 5, false),
		mk("manic", "spiff", 117992, 784, 47, 0.211, 2.274, 8, false),
		mk("manic", "sutton", 81123, 1638, 988, 0.204, 2.459, 24, false),
		mk("manic", "tove", 7938, 264, 1, 0.275, 3.597, 5, false),
		mk("void", "alps", 37137, 838, 7, 0.162, 0.489, 48, true), // Fig. 7(d)
		mk("void", "baskerville", 32042, 853, 339, 0.482, 1.094, 16, false),
		mk("void", "ganef", 60770, 1112, 414, 0.254, 0.637, 16, false),
		mk("void", "maria", 93005, 1651, 33, 0.152, 0.417, 6, false),
		mk("void", "spiff", 65536, 671, 72, 0.415, 0.749, 8, false),
		mk("void", "sutton", 78246, 1928, 840, 0.211, 0.601, 24, false),
		mk("void", "tove", 8265, 856, 5, 0.272, 1.356, 8, true),    // Fig. 7(e)
		mk("babel", "alps", 13460, 1466, 0, 0.194, 1.359, 8, true), // Fig. 7(f)
		mk("babel", "baskerville", 62237, 1753, 197, 0.253, 0.429, 12, false),
		mk("babel", "ganef", 86675, 2125, 398, 0.201, 0.306, 16, false),
		mk("babel", "spiff", 57687, 1120, 0, 0.331, 0.953, 5, false),
		mk("babel", "sutton", 83486, 2320, 685, 0.210, 0.705, 24, false),
		mk("babel", "tove", 83944, 1516, 1, 0.194, 0.520, 5, false),
		mk("pif", "alps", 83971, 762, 0, 0.168, 7.278, 5, false),
		mk("pif", "imagine", 44891, 1346, 15, 0.229, 0.700, 8, true), // Fig. 7(b)
		mk("pif", "manic", 34251, 1422, 43, 0.257, 1.454, 33, true),  // Fig. 7(c)
	}
}

// PairByName returns the Table II pair labeled "sender-receiver".
func PairByName(name string) (Pair, bool) {
	for _, p := range TableII() {
		if p.Name() == name {
			return p, true
		}
	}
	return Pair{}, false
}

// Fig7Pairs returns the six pairs shown in Fig. 7, in the paper's order.
func Fig7Pairs() []Pair {
	names := []string{
		"manic-baskerville", "pif-imagine", "pif-manic",
		"void-alps", "void-tove", "babel-alps",
	}
	out := make([]Pair, 0, len(names))
	for _, n := range names {
		p, ok := PairByName(n)
		if !ok {
			panic("hosts: missing Fig. 7 pair " + n)
		}
		out = append(out, p)
	}
	return out
}

// Fig8Pairs returns the six sender-receiver pairs of the 100-second
// campaign shown in Fig. 8. Pairs involving hosts without a Table II row
// (att-sutton, manic-afer) reuse plausible parameters from related rows.
func Fig8Pairs() []Pair {
	ganef, _ := PairByName("manic-ganef")
	mafalda, _ := PairByName("manic-mafalda")
	tove, _ := PairByName("manic-tove")
	maria, _ := PairByName("manic-maria")
	att := Pair{Sender: "att", Receiver: "sutton", RTT: 0.215, T0: 0.65,
		Wm: 24, PaperPackets: 80000, PaperLoss: 1900, PaperTD: 800}
	att.DropRate = att.P()
	afer := Pair{Sender: "manic", Receiver: "afer", RTT: 0.230, T0: 2.3,
		Wm: 12, PaperPackets: 60000, PaperLoss: 900, PaperTD: 200}
	afer.DropRate = afer.P()
	return []Pair{ganef, mafalda, tove, maria, att, afer}
}

// SenderVariant returns the TCP variant of the pair's sender host.
func (p Pair) SenderVariant() reno.Variant {
	if h, ok := HostByName(p.Sender); ok {
		return h.Variant
	}
	return reno.Reno
}

// seed derives a stable per-pair RNG seed.
func (p Pair) seed(salt uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(p.Name()) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h ^ salt
}

// TDFraction returns the paper's share of loss indications that were
// triple-duplicate events for this pair.
func (p Pair) TDFraction() float64 {
	if p.PaperLoss == 0 {
		return 0
	}
	return float64(p.PaperTD) / float64(p.PaperLoss)
}

// BurstDur returns the loss-outage duration used for this pair's path.
// It is tied to the paper's TD fraction: pairs whose loss indications
// were almost all timeouts (TD fraction near 0) get outages that outlive
// a whole round-trip — killing the fast retransmission too — while
// TD-rich pairs get sub-RTT outages that fast retransmit repairs.
func (p Pair) BurstDur() float64 {
	if p.BurstDurOverride > 0 {
		return p.BurstDurOverride
	}
	frac := p.TDFraction()
	return p.RTT * (0.2 + 1.3*(1-frac))
}

// ConnConfig builds the emulated connection for this pair. salt
// diversifies the random streams across repetitions (e.g. the 100
// serial connections of the Fig. 8 campaign).
func (p Pair) ConnConfig(salt uint64) reno.ConnConfig {
	rng := sim.NewRNG(p.seed(salt))
	oneWay := p.RTT / 2
	// Correlated losses, per the paper's loss model: an outage that
	// starts with probability DropRate consumes every packet for
	// BurstDur seconds.
	loss := netem.NewTimedBurst(p.DropRate, p.BurstDur(), rng.Fork("loss"))
	return reno.ConnConfig{
		Sender: reno.SenderConfig{
			Variant: p.SenderVariant(),
			RWnd:    p.Wm,
			// Calibrate the emulated first-timeout duration to the
			// paper's published T0 via the RTO floor; the coarse
			// 500 ms BSD tick shaped the originals the same way.
			MinRTO: p.T0,
		},
		Receiver: reno.ReceiverConfig{AckEvery: 2},
		Path: netem.PathConfig{
			Forward: netem.LinkConfig{
				Delay: &netem.UniformJitterDelay{Base: oneWay * 0.9, Jitter: oneWay * 0.2, RNG: rng.Fork("fdelay")},
				Loss:  loss,
			},
			Reverse: netem.LinkConfig{
				Delay: &netem.UniformJitterDelay{Base: oneWay * 0.9, Jitter: oneWay * 0.2, RNG: rng.Fork("rdelay")},
			},
		},
	}
}

// ModemPair returns the Fig. 11 configuration: manic sending to a Linux
// PC behind a 28.8 kb/s modem with a dedicated deep buffer. With
// 1024-byte packets the modem drains ~3.5 packets/s. A small random loss
// component rides on top (the paper's modem trace still saw wide-area
// losses upstream of the modem), giving the Fig. 11 scatter its p axis;
// the deep dedicated buffer itself never overflows, which is exactly why
// the RTT tracks the window.
func ModemPair() (Pair, reno.ConnConfig) {
	p := Pair{Sender: "manic", Receiver: "p5", RTT: 4.726, T0: 18.407, Wm: 22}
	path := netem.ModemPath(3.5, 40, 0.05)
	path.Forward.Loss = netem.NewTimedBurst(0.01, 1.0, sim.NewRNG(p.seed(0xF16)).Fork("modemloss"))
	cfg := reno.ConnConfig{
		Sender: reno.SenderConfig{
			Variant: reno.Irix,
			RWnd:    p.Wm,
			MinRTO:  1.0,
		},
		Receiver: reno.ReceiverConfig{AckEvery: 2},
		Path:     path,
	}
	return p, cfg
}

// String implements fmt.Stringer.
func (p Pair) String() string {
	return fmt.Sprintf("%s (RTT=%.3fs T0=%.3fs Wm=%d p=%.4f)", p.Name(), p.RTT, p.T0, p.Wm, p.P())
}
