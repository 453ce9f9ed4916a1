// Quickstart: evaluate the PFTK model and check it against a simulated
// TCP Reno transfer in ~40 lines.
package main

import (
	"fmt"

	"pftk"
)

func main() {
	// A transcontinental path of the late-90s Internet: 200 ms RTT,
	// 2-second timeouts, a 12-packet receiver window.
	params := pftk.NewParams(0.2, 2.0, 12)

	fmt.Println("PFTK send-rate model,", params)
	fmt.Println()
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "p", "full", "approx", "TD-only", "throughput")
	for _, p := range []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2} {
		fmt.Printf("%-8.3f %12.2f %12.2f %12.2f %12.2f\n",
			p,
			pftk.SendRate(p, params),
			pftk.SendRateApprox(p, params),
			pftk.SendRateTDOnly(p, params),
			pftk.Throughput(p, params))
	}

	// Validate one point against the packet-level simulator: run a
	// 1000-second bulk transfer at 2% loss and compare.
	res := pftk.Sim(
		pftk.WithPath(0.2),
		pftk.WithLoss(0.02),
		pftk.WithWindow(12),
		pftk.WithMinRTO(2.0), // shapes T0 toward the model's 2 s
		pftk.WithDuration(1000),
		pftk.WithSeed(42),
	)
	sum := pftk.Analyze(res.Trace)
	measured := pftk.Params{RTT: sum.MeanRTT, T0: sum.MeanT0, Wm: 12, B: 2}
	fmt.Println()
	fmt.Printf("simulated 1000 s at 2%% loss: measured p=%.4f RTT=%.3fs T0=%.3fs\n",
		sum.P, sum.MeanRTT, sum.MeanT0)
	fmt.Printf("  measured send rate: %8.2f pkts/s\n", res.SendRate())
	fmt.Printf("  model prediction:   %8.2f pkts/s\n", pftk.SendRate(sum.P, measured))
	fmt.Printf("  TD-only baseline:   %8.2f pkts/s (overestimates)\n",
		pftk.SendRateTDOnly(sum.P, measured))
}
