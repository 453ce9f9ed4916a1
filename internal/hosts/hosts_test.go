package hosts

import (
	"math"
	"testing"

	"pftk/internal/reno"
)

func TestTableIInventory(t *testing.T) {
	hs := TableI()
	if len(hs) != 19 {
		t.Fatalf("Table I has %d hosts, want 19", len(hs))
	}
	seen := map[string]bool{}
	for _, h := range hs {
		if h.Name == "" || h.Domain == "" || h.OS == "" {
			t.Errorf("incomplete host %+v", h)
		}
		if seen[h.Name] {
			t.Errorf("duplicate host %s", h.Name)
		}
		seen[h.Name] = true
	}
}

func TestVariantAssignment(t *testing.T) {
	cases := map[string]string{
		"void":  "linux", // Linux 2.0.30
		"manic": "irix",  // Irix 6.2
		"alps":  "tahoe", // SunOS 4.1.3
		"babel": "reno",  // SunOS 5.5.1 (Solaris)
	}
	for name, variant := range cases {
		h, ok := HostByName(name)
		if !ok {
			t.Fatalf("host %s missing", name)
		}
		if h.Variant.Name != variant {
			t.Errorf("%s variant = %s, want %s", name, h.Variant.Name, variant)
		}
	}
	if _, ok := HostByName("nonesuch"); ok {
		t.Error("unknown host found")
	}
}

func TestHostByNameDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { HostByName("void") }); n != 0 {
		t.Errorf("HostByName allocates %v times per call, want 0", n)
	}
}

func TestTableIReturnsCopy(t *testing.T) {
	TableI()[0].Name = "edited"
	if h := TableI()[0]; h.Name != "ada" {
		t.Errorf("editing a returned Table I changed the inventory: %+v", h)
	}
}

func TestTableIIPairs(t *testing.T) {
	pairs := TableII()
	if len(pairs) != 24 {
		t.Fatalf("Table II has %d pairs, want 24", len(pairs))
	}
	senders := map[string]int{}
	for _, p := range pairs {
		senders[p.Sender]++
		if p.PaperPackets <= 0 || p.PaperLoss <= 0 {
			t.Errorf("%s: missing paper statistics", p.Name())
		}
		if p.RTT <= 0 || p.T0 <= 0 || p.Wm < 2 {
			t.Errorf("%s: bad parameters %+v", p.Name(), p)
		}
		if p.PaperTD > p.PaperLoss {
			t.Errorf("%s: TD count exceeds loss indications", p.Name())
		}
		if math.Abs(p.DropRate-p.P()) > 1e-12 {
			t.Errorf("%s: drop rate %g not calibrated to paper p %g", p.Name(), p.DropRate, p.P())
		}
		if _, ok := HostByName(p.Sender); !ok {
			t.Errorf("%s: unknown sender", p.Name())
		}
		if _, ok := HostByName(p.Receiver); !ok {
			t.Errorf("%s: unknown receiver", p.Name())
		}
	}
	// The paper's four senders.
	for _, s := range []string{"manic", "void", "babel", "pif"} {
		if senders[s] == 0 {
			t.Errorf("sender %s missing", s)
		}
	}
}

func TestPublishedWindowsMatchFig7Captions(t *testing.T) {
	want := map[string]int{
		"manic-baskerville": 6,
		"pif-imagine":       8,
		"pif-manic":         33,
		"void-alps":         48,
		"void-tove":         8,
		"babel-alps":        8,
	}
	for name, wm := range want {
		p, ok := PairByName(name)
		if !ok {
			t.Fatalf("pair %s missing", name)
		}
		if p.Wm != wm {
			t.Errorf("%s Wm = %d, want %d (Fig. 7 caption)", name, p.Wm, wm)
		}
		if !p.WmPublished {
			t.Errorf("%s should be marked as published", name)
		}
	}
}

func TestPaperLossRates(t *testing.T) {
	// Spot checks against Table II arithmetic.
	p, _ := PairByName("manic-alps")
	if math.Abs(p.P()-722.0/54402) > 1e-12 {
		t.Errorf("manic-alps p = %g", p.P())
	}
	vt, _ := PairByName("void-tove")
	if vt.P() < 0.1 {
		t.Errorf("void-tove should be the high-loss trace, p = %g", vt.P())
	}
}

func TestFig7PairsOrder(t *testing.T) {
	ps := Fig7Pairs()
	if len(ps) != 6 {
		t.Fatalf("%d pairs", len(ps))
	}
	if ps[0].Name() != "manic-baskerville" || ps[5].Name() != "babel-alps" {
		t.Errorf("order: %v, %v", ps[0].Name(), ps[5].Name())
	}
}

func TestFig8Pairs(t *testing.T) {
	ps := Fig8Pairs()
	if len(ps) != 6 {
		t.Fatalf("%d pairs", len(ps))
	}
	for _, p := range ps {
		if p.DropRate <= 0 || p.RTT <= 0 || p.Wm < 2 {
			t.Errorf("pair %s has unusable parameters: %+v", p.Name(), p)
		}
	}
}

func TestConnConfigDeterministicPerSalt(t *testing.T) {
	p, _ := PairByName("manic-ganef")
	r1 := reno.RunConnection(p.ConnConfig(1), 60)
	r2 := reno.RunConnection(p.ConnConfig(1), 60)
	if r1.Stats.TotalSent() != r2.Stats.TotalSent() {
		t.Error("same salt should reproduce the run exactly")
	}
	r3 := reno.RunConnection(p.ConnConfig(2), 60)
	if r1.Stats.TotalSent() == r3.Stats.TotalSent() && r1.Stats.LossIndications() == r3.Stats.LossIndications() {
		t.Error("different salts should perturb the run")
	}
}

func TestConnConfigProducesPlausibleTrace(t *testing.T) {
	p, _ := PairByName("manic-ganef")
	res := reno.RunConnection(p.ConnConfig(7), 600)
	if res.Stats.TotalSent() < 1000 {
		t.Fatalf("only %d packets in 600s", res.Stats.TotalSent())
	}
	// Measured loss rate should land within 3x of the calibration
	// target (correlated bursts shift it).
	meas := res.LossIndicationRate()
	if meas < p.P()/3 || meas > p.P()*3 {
		t.Errorf("measured p = %g, calibration target %g", meas, p.P())
	}
	if res.Stats.LossIndications() == 0 {
		t.Error("no loss indications")
	}
}

func TestModemPair(t *testing.T) {
	p, cfg := ModemPair()
	if p.Wm != 22 {
		t.Errorf("modem Wm = %d, want 22 (Fig. 11 caption)", p.Wm)
	}
	if cfg.Path.Forward.Rate <= 0 || cfg.Path.Forward.QueueCap < 20 {
		t.Errorf("modem path should be slow with a deep buffer: %+v", cfg.Path.Forward)
	}
}

func TestPairString(t *testing.T) {
	p, _ := PairByName("void-alps")
	if s := p.String(); s == "" {
		t.Error("empty String")
	}
	if _, ok := PairByName("no-pair"); ok {
		t.Error("unknown pair found")
	}
}
