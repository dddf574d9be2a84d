package advisor

// Report is the machine-readable advisor output: `spmmadvise -json` emits
// it, and the serving layer (internal/serve) embeds it in its register
// response as the paper's reading of the matrix (the served plan comes from
// the host-measured rule in serve, not from this ranking). One struct in
// one place so the CLI and the server never drift.
type Report struct {
	Matrix string `json:"matrix"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	NNZ    int    `json:"nnz"`
	// Features are the signals the recommendations are scored on.
	Features FeatureSummary `json:"features"`
	// Schedule is the work-partition recommendation (RecommendSchedule).
	Schedule Advice `json:"schedule"`
	// Environments holds the per-environment format rankings, best first.
	Environments []EnvAdvice `json:"environments"`
}

// FeatureSummary is the JSON rendering of the scored Features.
type FeatureSummary struct {
	MaxRow      int     `json:"max_row"`
	AvgRow      float64 `json:"avg_row"`
	Ratio       float64 `json:"ratio"`
	Gini        float64 `json:"gini"`
	ELLOverhead float64 `json:"ell_overhead"`
	BCSRFill4   float64 `json:"bcsr_fill4"`
	Density     float64 `json:"density"`
}

// EnvAdvice is one environment's ranking.
type EnvAdvice struct {
	Env    string   `json:"env"`
	Ranked []Advice `json:"ranked"`
}

// NewReport assembles the report for the given environments.
func NewReport(name string, f Features, envs []Environment) Report {
	r := Report{
		Matrix: name,
		Rows:   f.Rows,
		Cols:   f.Cols,
		NNZ:    f.NNZ,
		Features: FeatureSummary{
			MaxRow:      f.MaxRow,
			AvgRow:      f.AvgRow,
			Ratio:       f.Ratio,
			Gini:        f.Gini,
			ELLOverhead: f.ELLOverhead,
			BCSRFill4:   f.BCSRFill4,
			Density:     f.Density,
		},
		Schedule: RecommendSchedule(f),
	}
	for _, e := range envs {
		r.Environments = append(r.Environments, EnvAdvice{
			Env:    e.String(),
			Ranked: Recommend(f, e),
		})
	}
	return r
}

// Best returns the top-ranked advice for the environment, or a zero Advice
// when the report does not cover it.
func (r Report) Best(env Environment) Advice {
	for _, e := range r.Environments {
		if e.Env == env.String() && len(e.Ranked) > 0 {
			return e.Ranked[0]
		}
	}
	return Advice{}
}
