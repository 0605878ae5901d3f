package bench

import (
	"encoding/json"
	"io"

	"nvref/internal/obs"
	"nvref/internal/rt"
)

// ResultSchemaVersion identifies the nvbench JSON result layout. The
// embedded metrics snapshots carry their own obs.SchemaVersion, recorded
// separately so either document can evolve alone.
const ResultSchemaVersion = 1

// JSONMeasurement is one (benchmark, mode) run in the JSON report.
type JSONMeasurement struct {
	Benchmark string `json:"benchmark"`
	Mode      string `json:"mode"`

	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	MemAccesses  uint64 `json:"mem_accesses"`
	Branches     uint64 `json:"branches"`
	Mispredicts  uint64 `json:"mispredicts"`

	StorePOps      uint64 `json:"storep_ops"`
	POLBAccesses   uint64 `json:"polb_accesses"`
	VALBAccesses   uint64 `json:"valb_accesses"`
	EATranslations uint64 `json:"ea_translations"`
	SWChecks       uint64 `json:"sw_checks"`

	DynamicChecks uint64 `json:"dynamic_checks"`
	AbsToRel      uint64 `json:"abs_to_rel"`
	RelToAbs      uint64 `json:"rel_to_abs"`

	Checksum uint64 `json:"checksum"`

	// Metrics is the whole-run observability snapshot (schema-versioned
	// inside), present when the run collected one.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// JSONReport is the full nvbench JSON document.
type JSONReport struct {
	Schema        int               `json:"schema"`
	MetricsSchema int               `json:"metrics_schema"`
	Records       int               `json:"records"`
	Operations    int               `json:"operations"`
	LLNodes       int               `json:"ll_nodes"`
	LLIters       int               `json:"ll_iters"`
	Measurements  []JSONMeasurement `json:"measurements"`
}

// BuildJSONReport flattens RunAll's output into the JSON document, in
// benchmark-then-mode order so the file is diffable between runs.
func BuildJSONReport(cfg RunConfig, all map[string]map[rt.Mode]Measurement) JSONReport {
	rep := JSONReport{
		Schema:        ResultSchemaVersion,
		MetricsSchema: obs.SchemaVersion,
		Records:       cfg.Spec.Records,
		Operations:    cfg.Spec.Operations,
		LLNodes:       cfg.LLNodes,
		LLIters:       cfg.LLIters,
	}
	for _, b := range Benchmarks {
		for _, mode := range rt.Modes {
			m, ok := all[b][mode]
			if !ok {
				continue
			}
			rep.Measurements = append(rep.Measurements, JSONMeasurement{
				Benchmark:      m.Benchmark,
				Mode:           m.Mode.String(),
				Cycles:         m.Cycles,
				Instructions:   m.Instructions,
				MemAccesses:    m.MemAccesses,
				Branches:       m.Branches,
				Mispredicts:    m.Mispredicts,
				StorePOps:      m.StorePOps,
				POLBAccesses:   m.POLBAccesses,
				VALBAccesses:   m.VALBAccesses,
				EATranslations: m.EATranslations,
				SWChecks:       m.SWChecks,
				DynamicChecks:  m.Env.DynamicChecks,
				AbsToRel:       m.Env.AbsToRel,
				RelToAbs:       m.Env.RelToAbs,
				Checksum:       m.Checksum,
				Metrics:        m.Metrics,
			})
		}
	}
	return rep
}

// WriteJSON writes the measurement report as indented JSON.
func WriteJSON(w io.Writer, rep JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
