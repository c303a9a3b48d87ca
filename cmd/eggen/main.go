// Command eggen generates evolving-graph workloads and writes them as
// edge lists, so egbfs/citemine and external tooling can share inputs.
// It also prints the graph's summary statistics to stderr. Parameters a
// generator rejects (say -nodes 0) are a usage error: one line on
// stderr and exit status 2.
//
// Usage:
//
//	eggen -model random -nodes 1000 -stamps 10 -edges 5000 [-seed 1]
//	      [-undirected] [-o out.txt]
//	eggen -model gnp -nodes 100 -stamps 5 -p 0.05
//	eggen -model pa -nodes 1000 -stamps 10 -m 3
//	eggen -model citation -nodes 300 -stamps 12
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	evolving "repro"
)

func main() {
	var (
		model      = flag.String("model", "random", "random | gnp | pa | citation")
		nodes      = flag.Int("nodes", 1000, "node count / authors")
		stamps     = flag.Int("stamps", 10, "time stamps")
		edges      = flag.Int("edges", 5000, "random: static edge count")
		p          = flag.Float64("p", 0.05, "gnp: edge probability")
		m          = flag.Int("m", 3, "pa: edges per arriving node")
		seed       = flag.Int64("seed", 1, "generator seed")
		undirected = flag.Bool("undirected", false, "undirected edges (random/gnp)")
		out        = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	defer func() {
		// The generators panic on parameters outside their domain, with
		// a "gen: " message naming them; that is the user's input, not
		// a bug, so report it as one.
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok || !strings.HasPrefix(msg, "gen: ") {
				panic(r)
			}
			fmt.Fprintf(os.Stderr, "eggen: %s\n", strings.TrimPrefix(msg, "gen: "))
			os.Exit(2)
		}
	}()
	var g *evolving.Graph
	switch *model {
	case "random":
		g = evolving.Random(evolving.RandomConfig{
			Nodes: *nodes, Stamps: *stamps, Edges: *edges,
			Directed: !*undirected, Seed: *seed,
		})
	case "gnp":
		g = evolving.GNP(*nodes, *stamps, *p, !*undirected, *seed)
	case "pa":
		g = evolving.PreferentialAttachment(*nodes, *stamps, *m, *seed)
	case "citation":
		cfg := evolving.DefaultCitationConfig()
		cfg.Authors = *nodes
		cfg.Stamps = *stamps
		cfg.Seed = *seed
		g, _ = evolving.SyntheticCitation(cfg)
	default:
		fail("unknown model %q", *model)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("create: %v", err)
		}
		defer f.Close()
		w = f
	}
	if err := evolving.WriteEdgeList(w, g); err != nil {
		fail("write: %v", err)
	}
	fmt.Fprint(os.Stderr, g.Stats())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "eggen: "+format+"\n", args...)
	os.Exit(1)
}
