package main

import (
	"debug/elf"
	"strings"
)

// hotFuncs are the functions whose offset within a 64-byte block is
// reported with every run. On a 2-vCPU Xeon, in a period when the host ran
// slow, the same recompute.GCMR code ran a search-cold op in ~66 ms when
// the function started at offset 32 and in ~147 ms at offset 0; later the
// offset made no difference. A large change of search latency between two
// builds is read against this layout before it is credited to the code.
var hotFuncs = []string{
	"repro/internal/recompute.GCMR",
	"repro/internal/recompute.BuildOptions",
	"repro/internal/placement.(*ScorerBatch).evalCandMask",
	"repro/internal/ga.Optimize",
}

// codeLayout returns each hot function's address modulo 64 in the binary
// at path, or nil when the binary cannot be read.
func codeLayout(path string) map[string]uint64 {
	f, err := elf.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		return nil
	}
	out := map[string]uint64{}
	for _, s := range syms {
		for _, h := range hotFuncs {
			if s.Name == h {
				out[strings.TrimPrefix(h, "repro/internal/")] = s.Value % 64
			}
		}
	}
	return out
}
