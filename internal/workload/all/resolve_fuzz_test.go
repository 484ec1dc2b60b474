package all_test

import (
	"testing"

	"repro/internal/workload"
)

// resolveCorpus holds the concrete forms of the string grammars that
// `abcsim -list` documents (topology, faults, recovery, inflight, trace,
// fig, algo, inputs), the documented templates verbatim, and the inputs
// that once failed this target.
var resolveCorpus = []string{
	// topology=
	"full", "ring", "torus", "torus/4x1", "torus/2x2", "regular/2", "scalefree/1", "islands/2",
	"torus[/RxC]", "regular/D", "scalefree/M", "islands/K",
	// faults=
	"none", "crash/1", "crash/1@2", "crash/p0", "byz/1", "byz/1@20", "script/1@3/2",
	"recover/1@2..4", "recover/p0@4..12", "drop/0.3", "dup/0.25", "spike/0.2", "spike/0.2@2",
	"partition/halves@2..5", "partition/p0@1..2",
	"crash/1+drop/0.1+dup/0.1+spike/0.1@1/2+partition/halves@1..2",
	"crash/K[@S]", "recover/K@S..E", "partition/halves|pI@S..E",
	// recovery=, inflight=
	"durable", "amnesia", "drop", "hold",
	// trace=
	"window/1", "window/4096", "window/K",
	// fig=, algo=, inputs=
	"fig2", "fig3", "fig4", "fig9", "fig1 | fig2", "floodset", "phaseking", "eig",
	"alt", "id", "const/1", "const/V",
	// malformed
	"", "/", "@", "+", "..", "window/0", "window/-1", "torus/0x0", "const/",
}

// FuzzResolveJobs passes each fuzzed string as every String parameter of
// every registered source, one at a time, through Resolve and then Jobs.
// Only job construction runs, not the simulation. An error is a clean
// rejection; a panic is a bug. The seed corpus adds every declared
// default to resolveCorpus.
func FuzzResolveJobs(f *testing.F) {
	for _, s := range resolveCorpus {
		f.Add(s)
	}
	for _, name := range workload.Names() {
		src, _ := workload.Lookup(name)
		for _, p := range src.Params {
			f.Add(p.Default)
		}
	}
	f.Fuzz(func(t *testing.T, value string) {
		for _, name := range workload.Names() {
			src, _ := workload.Lookup(name)
			for _, p := range src.Params {
				if p.Kind != workload.String {
					continue
				}
				v, err := src.Resolve(map[string]string{p.Name: value})
				if err != nil {
					continue
				}
				src.Jobs(v, []int64{1}, workload.JobOptions{})
			}
		}
	})
}
