// Netselect: hybrid WiFi+LTE network selection (Section 4.1). The
// middlebox learns one Admittance Classifier per cell and steers each
// arriving flow to the cell whose post-admission state sits deepest
// inside its capacity region; flows no cell can take are rejected.
//
//	go run ./examples/netselect
package main

import (
	"fmt"
	"log"

	"exbox"
	"exbox/internal/mathx"
)

func main() {
	wifi := exbox.FluidWiFi{Config: exbox.SimWiFiConfig()}
	lte := exbox.FluidLTE{Config: exbox.SimLTEConfig()}
	wifiOracle := exbox.Oracle{Net: wifi}
	lteOracle := exbox.Oracle{Net: lte}

	mb := exbox.NewMiddlebox(exbox.DefaultSpace, exbox.Discontinue)
	if _, err := mb.AddCell("wifi-ap1", exbox.DefaultClassifierConfig()); err != nil {
		log.Fatal(err)
	}
	if _, err := mb.AddCell("lte-enb1", exbox.DefaultClassifierConfig()); err != nil {
		log.Fatal(err)
	}

	// Train both cells from their own ground truth.
	rng := mathx.NewRand(11)
	for _, ev := range exbox.ArrivalEvents(exbox.RandomMatrices(rng, 30, 20, 0, exbox.DefaultSpace), nil) {
		mb.Observe("wifi-ap1", exbox.Sample{Arrival: ev.Arrival, Label: wifiOracle.Label(ev.Arrival)})
		mb.Observe("lte-enb1", exbox.Sample{Arrival: ev.Arrival, Label: lteOracle.Label(ev.Arrival)})
	}
	for _, cell := range mb.Cells() {
		if cell.Classifier.Bootstrapping() {
			log.Fatalf("cell %s did not graduate", cell.ID)
		}
		fmt.Printf("cell %-9s online (training set %d)\n", cell.ID, cell.Classifier.TrainingSetSize())
	}
	fmt.Println()

	// Each cell carries its own load; new flows arrive and the
	// middlebox places them.
	wifiLoad := exbox.NewMatrix(exbox.DefaultSpace).Set(exbox.Streaming, 0, 8)
	lteLoad := exbox.NewMatrix(exbox.DefaultSpace).Set(exbox.Conferencing, 0, 4)

	for i := 0; i < 14; i++ {
		class := []exbox.AppClass{exbox.Streaming, exbox.Web, exbox.Conferencing}[i%3]
		out, ok, err := mb.SelectNetwork([]exbox.Candidate{
			{Cell: "wifi-ap1", Arrival: exbox.Arrival{Matrix: wifiLoad, Class: class}},
			{Cell: "lte-enb1", Arrival: exbox.Arrival{Matrix: lteLoad, Class: class}},
		}, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			fmt.Printf("flow %2d (%-12v): no cell can take it -> %v\n", i, class, out.Verdict)
			continue
		}
		fmt.Printf("flow %2d (%-12v): -> %-9s (depth %.2f)  wifi=%v lte=%v\n",
			i, class, out.Cell, out.Decision.Depth, wifiLoad, lteLoad)
		// The admitted flow loads its cell.
		if out.Cell == "wifi-ap1" {
			wifiLoad = wifiLoad.Inc(class, 0)
		} else {
			lteLoad = lteLoad.Inc(class, 0)
		}
	}

	// Dynamics (Section 4.3): after the placements, re-evaluate the
	// WiFi cell; flows that no longer fit are flagged for offload.
	var active []exbox.ActiveFlow
	id := 0
	for c := 0; c < 3; c++ {
		for i := 0; i < wifiLoad.Get(exbox.AppClass(c), 0); i++ {
			active = append(active, exbox.ActiveFlow{ID: id, Class: exbox.AppClass(c)})
			id++
		}
	}
	evict, err := mb.ReevaluateWith("wifi-ap1", wifiLoad, active, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nre-evaluation of wifi-ap1 (%v): %d of %d flows flagged for offload\n",
		wifiLoad, len(evict), len(active))
}
