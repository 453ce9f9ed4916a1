// TCP-friendly rate control: the application that motivated the paper.
//
// A non-TCP flow (say, a UDP video stream) wants to consume no more
// bandwidth than a TCP connection would under the same conditions —
// otherwise it starves TCP traffic. The PFTK formula gives it the target:
// measure the loss rate and RTT over each control interval, then send at
// B(p). This is the mechanism later standardized as TFRC (RFC 5348),
// whose throughput equation is exactly the model implemented here.
//
// This example simulates a path whose loss rate drifts over time and
// shows a controller tracking the TCP-fair rate, plus the inverse
// computation: "how much loss could I tolerate at my current rate?"
package main

import (
	"fmt"
	"math"

	"pftk"
)

// lossAt models a path whose congestion varies over a day-like cycle
// between 0.5% and 8%.
func lossAt(minute float64) float64 {
	return 0.0425 - 0.0375*math.Cos(2*math.Pi*minute/180)
}

func main() {
	params := pftk.NewParams(0.15, 1.2, 32)

	fmt.Println("TCP-friendly controller,", params)
	fmt.Println()
	fmt.Printf("%-8s %-8s %14s %16s\n", "minute", "loss", "fair rate", "tolerable loss")
	fmt.Printf("%-8s %-8s %14s %16s\n", "", "", "(pkts/s)", "at this rate")

	// The controller smooths its loss estimate (as TFRC does) with an
	// EWMA and re-computes the allowed rate each "minute".
	est := lossAt(0)
	for minute := 0.0; minute <= 360; minute += 30 {
		p := lossAt(minute)
		est = 0.7*est + 0.3*p
		rate := pftk.FriendlyRate(est, params)

		// The inverse question a provisioning tool asks: how much
		// loss can this rate absorb before TCP-friendliness would
		// force a slowdown below it?
		tolerable, err := pftk.LossRateFor(rate, params)
		if err != nil {
			tolerable = math.NaN()
		}
		fmt.Printf("%-8.0f %-8.4f %14.2f %16.4f\n", minute, est, rate, tolerable)
	}

	fmt.Println()
	fmt.Println("sanity: a flow pacing itself with FriendlyRate matches a real")
	fmt.Println("TCP connection simulated under the same loss process:")
	for _, p := range []float64{0.01, 0.04} {
		res := pftk.Sim(
			pftk.WithPath(0.15), pftk.WithLoss(p), pftk.WithWindow(32), pftk.WithMinRTO(1.2),
			pftk.WithDuration(2000), pftk.WithSeed(uint64(p*1e4)),
		)
		sum := pftk.Analyze(res.Trace)
		fair := pftk.FriendlyRate(sum.P, params)
		fmt.Printf("  loss %.2f: simulated TCP %.1f pkts/s, controller target %.1f pkts/s (ratio %.2f)\n",
			p, res.SendRate(), fair, fair/res.SendRate())
	}
}
