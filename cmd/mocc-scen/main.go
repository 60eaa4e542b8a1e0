// Command mocc-scen is the scenario subsystem's CLI: it lists generator
// families, renders generated or hand-written scenario specs, runs them on
// the packet-level simulator, evaluates scheme suites over generated
// scenarios, and drives the engine-differential fuzzer.
//
// Usage:
//
//	mocc-scen list
//	mocc-scen describe -family cellular -seed 3
//	mocc-scen describe -spec examples/scenarios/cellular.json
//	mocc-scen run -spec examples/scenarios/trace-replay.json
//	mocc-scen run -family flash-crowd -seed 7 -engine reference
//	mocc-scen suite -per-family 2 -steps 150
//	mocc-scen fuzz -n 25 -seed 1
//
// Specs that reference learned schemes (mocc, aurora-*, orca) train the
// model zoo in-process on first use (-scale quick|standard).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"mocc/internal/cc"
	"mocc/internal/pantheon"
	"mocc/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mocc-scen: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		cmdList()
	case "describe":
		cmdDescribe(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "suite":
		cmdSuite(os.Args[2:])
	case "fuzz":
		cmdFuzz(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: mocc-scen <subcommand> [flags]

subcommands:
  list      list generator scenario families
  describe  print a scenario spec as canonical JSON (-spec file | -family f -seed n)
  run       execute a scenario on the simulator and print per-flow results
  suite     evaluate MOCC + baselines over generated scenario suites
  fuzz      differential-fuzz the simulator engine pairs with generated scenarios
            (-topo rotates the multi-link topology families)
`)
}

// loadOrGenerate resolves the shared -spec/-family/-seed flag triple into a
// spec plus the directory trace files resolve against.
func loadOrGenerate(specPath, family string, seed int64) (*scenario.Spec, string) {
	if specPath != "" {
		s, err := scenario.Load(specPath)
		if err != nil {
			log.Fatal(err)
		}
		return s, filepath.Dir(specPath)
	}
	if family == "" {
		log.Fatal("need -spec <file> or -family <name> (see `mocc-scen list`)")
	}
	s, err := scenario.Generate(scenario.Family(family), seed)
	if err != nil {
		log.Fatal(err)
	}
	return s, ""
}

func cmdList() {
	t := pantheon.Table{
		Title:  "scenario generator families",
		Header: []string{"family", "description"},
	}
	for _, f := range scenario.AllFamilies() {
		t.Add(string(f), scenario.FamilyDescription(f))
	}
	mustWrite(t)
	fmt.Println("every (family, seed) pair is a deterministic scenario: `mocc-scen describe -family <f> -seed <n>`")
}

func cmdDescribe(args []string) {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	specPath := fs.String("spec", "", "spec file to validate and reprint")
	family := fs.String("family", "", "generator family")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	s, _ := loadOrGenerate(*specPath, *family, *seed)
	data, err := s.JSON()
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// zooResolver defers model-zoo construction until a spec actually names a
// learned scheme, so baseline-only runs stay instant.
func zooResolver(scale string, seed int64) scenario.SchemeResolver {
	var resolver scenario.SchemeResolver
	return func(f scenario.Flow) (cc.Algorithm, error) {
		if !pantheon.IsLearnedScheme(f.Scheme) {
			return nil, nil
		}
		if resolver == nil {
			zscale, err := parseScale(scale)
			if err != nil {
				return nil, err
			}
			log.Printf("training %s-scale model zoo for scheme %q ...", scale, f.Scheme)
			resolver = pantheon.NewSchemes(pantheon.NewZoo(zscale, seed)).ScenarioResolver()
		}
		return resolver(f)
	}
}

func parseScale(s string) (pantheon.Scale, error) {
	switch s {
	case "quick":
		return pantheon.Quick, nil
	case "standard":
		return pantheon.Standard, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want quick or standard)", s)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specPath := fs.String("spec", "", "spec file to run")
	family := fs.String("family", "", "generator family")
	seed := fs.Int64("seed", 1, "generator seed")
	engine := fs.String("engine", "fast", "simulator engine: fast | reference")
	scale := fs.String("scale", "quick", "model zoo training scale for learned schemes")
	zooSeed := fs.Int64("zoo-seed", 1, "model zoo training seed")
	fs.Parse(args)

	s, baseDir := loadOrGenerate(*specPath, *family, *seed)
	res, err := scenario.Run(s, scenario.RunOptions{
		CompileOptions: scenario.CompileOptions{
			BaseDir:  baseDir,
			Resolver: zooResolver(*scale, *zooSeed),
		},
		Engine: scenario.Engine(*engine),
	})
	if err != nil {
		log.Fatal(err)
	}
	mustWrite(pantheon.ScenarioResultTable(res))
}

func cmdSuite(args []string) {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	families := fs.String("families", "", "comma-separated family subset (default all)")
	perFamily := fs.Int("per-family", 3, "generated scenarios per family")
	steps := fs.Int("steps", 200, "monitor intervals per run")
	seed := fs.Int64("seed", 1, "suite seed")
	scale := fs.String("scale", "quick", "model zoo training scale")
	workers := fs.Int("workers", 0, "parallel scenario workers (0 = GOMAXPROCS)")
	fs.Parse(args)

	zscale, err := parseScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	schemes := pantheon.NewSchemes(pantheon.NewZoo(zscale, *seed))
	res, err := pantheon.RunScenarioSuite(schemes, pantheon.ScenarioSuiteConfig{
		Families:  parseFamilies(*families),
		PerFamily: *perFamily,
		Steps:     *steps,
		Seed:      *seed,
		Workers:   *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	util, lat := res.Tables()
	mustWrite(util)
	mustWrite(lat)
}

func cmdFuzz(args []string) {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	n := fs.Int("n", 25, "number of generated scenarios to diff")
	seed := fs.Int64("seed", 1, "generator seed offset")
	families := fs.String("families", "", "comma-separated family subset (default all)")
	topology := fs.Bool("topo", false, "rotate through the topology families (multi-link engines)")
	verbose := fs.Bool("v", false, "print every scenario as it passes")
	fs.Parse(args)

	cfg := scenario.FuzzConfig{N: *n, Seed: *seed, Families: parseFamilies(*families), Topo: *topology}
	if *verbose {
		cfg.Progress = func(i int, s *scenario.Spec, packets int) {
			fmt.Printf("  ok %3d  %-24s %8d pkts\n", i, s.Name, packets)
		}
	}
	res, err := scenario.Fuzz(cfg)
	if err != nil {
		log.Fatalf("FAILED after %d clean scenarios: %v", res.Scenarios, err)
	}
	fmt.Printf("fuzz: %d scenarios, %d packets through each engine, all bit-identical\n",
		res.Scenarios, res.Packets)
}

func parseFamilies(s string) []scenario.Family {
	if s == "" {
		return nil
	}
	var out []scenario.Family
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, scenario.Family(part))
		}
	}
	return out
}

func mustWrite(t pantheon.Table) {
	if err := t.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}
