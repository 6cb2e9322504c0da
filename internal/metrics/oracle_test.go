package metrics

import (
	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/program"
)

// trgConflictOracle is the line-by-line TRG_place metric that TRGConflict
// replaced: it lists the chunks each cache line holds and looks up the
// TRG_place weight of every pair on a line. The differential tests hold
// TRGConflict to it exactly.
func trgConflictOracle(layout *program.Layout, placeG *graph.Graph, chunker *program.Chunker, cfg cache.Config) int64 {
	prog := layout.Program()
	period := cfg.NumLines()
	lb := cfg.LineBytes

	occ := make([][]program.ChunkID, period)
	for p := 0; p < prog.NumProcs(); p++ {
		id := program.ProcID(p)
		start := layout.Addr(id) / lb
		lines := program.CeilDiv(layout.Addr(id)%lb+prog.Size(id), lb)
		for i := 0; i < lines; i++ {
			line := (start + i) % period
			// Byte offset within the procedure of the first byte that this
			// cache line holds.
			off := i*lb - layout.Addr(id)%lb
			if off < 0 {
				off = 0
			}
			if off >= prog.Size(id) {
				off = prog.Size(id) - 1
			}
			occ[line] = append(occ[line], chunker.ChunkAtOffset(id, off))
		}
	}

	var total int64
	for _, chunks := range occ {
		for i := 0; i < len(chunks); i++ {
			for j := i + 1; j < len(chunks); j++ {
				total += placeG.Weight(graph.NodeID(chunks[i]), graph.NodeID(chunks[j]))
			}
		}
	}
	return total
}

// wcgConflictOracle is the line-by-line WCG metric that WCGConflict
// replaced: it lists the procedures each cache line holds and adds the WCG
// weight of every pair that shares a line, once per pair.
func wcgConflictOracle(layout *program.Layout, wcgG *graph.Graph, cfg cache.Config) int64 {
	prog := layout.Program()
	period := cfg.NumLines()
	lb := cfg.LineBytes

	occ := make([][]program.ProcID, period)
	for p := 0; p < prog.NumProcs(); p++ {
		id := program.ProcID(p)
		start := layout.Addr(id) / lb
		lines := program.CeilDiv(layout.Addr(id)%lb+prog.Size(id), lb)
		if lines > period {
			lines = period
		}
		for i := 0; i < lines; i++ {
			occ[(start+i)%period] = append(occ[(start+i)%period], id)
		}
	}

	counted := make(map[[2]program.ProcID]bool)
	var total int64
	for _, procs := range occ {
		for i := 0; i < len(procs); i++ {
			for j := i + 1; j < len(procs); j++ {
				a, b := procs[i], procs[j]
				if a > b {
					a, b = b, a
				}
				key := [2]program.ProcID{a, b}
				if counted[key] {
					continue
				}
				counted[key] = true
				total += wcgG.Weight(graph.NodeID(a), graph.NodeID(b))
			}
		}
	}
	return total
}
