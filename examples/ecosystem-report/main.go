// Ecosystem report: the paper's §7 characterization in miniature —
// membership growth, geographic distribution, registration completeness
// and RPKI saturation for a generated Internet, printed as one summary.
//
// Run with:
//
//	go run ./examples/ecosystem-report [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"manrsmeter"
)

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 3, "generator seed")
	flag.Parse()

	cfg, err := manrsmeter.Preset("small", *seed)
	if err != nil {
		log.Fatal(err)
	}
	world, err := manrsmeter.GenerateWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := manrsmeter.NewPipeline(world)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("synthetic Internet: %d ASes in %d organizations, %d MANRS member ASes\n\n",
		world.Graph.NumASes(), len(world.Graph.Orgs()), world.MANRS.Len())

	fmt.Println(pipe.Fig2Growth().Render())
	fmt.Println(pipe.Fig4ByRIR().Render())
	fmt.Println(pipe.Finding70().Render())

	sat, err := pipe.Fig6Saturation(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sat.Render())

	// Headline comparison: Action 4 conformance like Findings 8.3/8.4.
	for _, r := range pipe.Action4() {
		fmt.Printf("%s program: %d/%d member ASes conformant to Action 4 (%d trivially)\n",
			r.Program, r.Conformant, r.Members, r.Trivial)
	}
}
