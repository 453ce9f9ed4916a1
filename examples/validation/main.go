// Validation campaign in miniature: the Section III methodology end to
// end. For a sweep of loss rates, simulate a bulk TCP Reno transfer,
// analyze the sender-side trace exactly as the paper's analysis programs
// did (inferring loss indications from wire events, Karn-filtered RTT,
// measured T0), and compare the measured send rate with the predictions
// of the full, approximate and TD-only models.
package main

import (
	"fmt"
	"math"

	"pftk"
)

func main() {
	fmt.Println("loss      measured    full(err)      approx(err)    TD-only(err)   TO-dominated?")
	var errFull, errApprox, errTD []float64
	for _, loss := range []float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.15} {
		res := pftk.Sim(
			pftk.WithPath(0.18),
			pftk.WithBurstLoss(loss, 0.2), // correlated losses, as observed on real paths
			pftk.WithWindow(24),
			pftk.WithMinRTO(1.0),
			pftk.WithDuration(3000),
			pftk.WithSeed(uint64(loss*1e6)),
		)
		sum := pftk.Analyze(res.Trace)
		params := pftk.Params{RTT: sum.MeanRTT, T0: sum.MeanT0, Wm: 24, B: 2}
		if params.Validate() != nil {
			params = pftk.NewParams(0.18, 1.0, 24)
		}
		meas := res.SendRate()
		rel := func(pred float64) float64 { return math.Abs(pred-meas) / meas }

		full := pftk.SendRate(sum.P, params)
		approx := pftk.SendRateApprox(sum.P, params)
		td := pftk.SendRateTDOnly(sum.P, params)
		errFull = append(errFull, rel(full))
		errApprox = append(errApprox, rel(approx))
		errTD = append(errTD, rel(td))

		fmt.Printf("%-8.3f  %8.1f  %8.1f(%4.2f)  %8.1f(%4.2f)  %8.1f(%4.2f)   %v\n",
			loss, meas, full, rel(full), approx, rel(approx), td, rel(td),
			sum.TimeoutSequences() > sum.TD)
	}

	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	fmt.Println()
	fmt.Printf("mean relative error: full %.2f, approx %.2f, TD-only %.2f\n",
		mean(errFull), mean(errApprox), mean(errTD))
	fmt.Println("(the paper's finding: the full model tracks measurements across the")
	fmt.Println(" whole loss range while TD-only overestimates badly beyond ~5% loss)")
}
