// Command tdreport regenerates the paper's evaluation: it runs every
// experiment and writes EXPERIMENTS.md, the paper-vs-measured record
// for all four tables, the five model-trace figures, the Figure 4
// sweep, the fitted equations and the extension studies. With -figures
// it also writes each figure's trace as CSV and as an ASCII plot. The
// generation itself lives in internal/report.
//
// Usage:
//
//	tdreport [-scale 1.0] [-o EXPERIMENTS.md] [-figures DIR]
package main

import (
	"flag"
	"log"
	"os"

	"trickledown/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdreport: ")
	scale := flag.Float64("scale", 1.0, "duration multiplier for every run")
	out := flag.String("o", "EXPERIMENTS.md", "output file")
	figures := flag.String("figures", "", "directory for each figure's <name>.csv and <name>.txt plot (omit to skip)")
	flag.Parse()

	opt := report.DefaultOptions()
	opt.Scale = *scale
	g := report.NewGenerator(opt)
	g.Progress = func(section string) { log.Printf("done: %s", section) }

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.Generate(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
	if *figures != "" {
		if err := g.WriteFigures(*figures); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote figures to %s", *figures)
	}
}
