// Short flows: why web-page-sized transfers never see the steady-state
// rate.
//
// The paper models saturated senders and flags short connections as
// future work (its reference [2]; Cardwell et al. completed the model in
// 2000). This example exercises the shortflow extension: for flow sizes
// from a single packet to tens of thousands, it compares the expected
// completion time from the model with simulated TCP Reno transfers, and
// shows the effective rate climbing toward B(p) as slow start amortizes.
package main

import (
	"fmt"

	"pftk"
)

func main() {
	const (
		rtt  = 0.1
		loss = 0.02
	)
	params := pftk.Params{RTT: rtt + 0.01, T0: 1.2, Wm: 64, B: 2}
	steady := pftk.SendRate(loss, params)

	fmt.Printf("path: RTT %.0f ms, loss %.0f%%, Wm 64 — steady-state B(p) = %.1f pkts/s\n\n",
		rtt*1000, loss*100, steady)
	fmt.Printf("%-10s %14s %14s %14s %12s\n",
		"flow size", "model time(s)", "sim time(s)", "eff. rate", "% of B(p)")

	for _, n := range []int{1, 10, 50, 200, 1000, 5000, 20000} {
		model := pftk.ShortFlowTime(n, loss, params)
		sim := pftk.Sim(
			pftk.WithPath(rtt), pftk.WithLoss(loss), pftk.WithWindow(64), pftk.WithMinRTO(1),
			pftk.WithSeed(uint64(n)), pftk.WithTransfer(n, 7200),
		).TransferTime
		rate := pftk.ShortFlowRate(n, loss, params)
		fmt.Printf("%-10d %14.2f %14.2f %14.1f %11.0f%%\n",
			n, model, sim, rate, 100*rate/steady)
	}

	fmt.Println()
	fmt.Println("a 10-packet flow runs at roughly a quarter of the steady-state")
	fmt.Println("rate: its lifetime is pure slow start. Only after hundreds of")
	fmt.Println("packets does the effective rate approach the PFTK prediction —")
	fmt.Println("the reason mean-rate models mispredict web traffic, and the")
	fmt.Println("reason the short-connection extension exists.")
}
