package core

import "sort"

// Learn block type identifiers. These are the names accepted in
// LearnBlockSpec.Type and listed by the REST block catalog.
const (
	LearnClassification = "classification"
	LearnAnomaly        = "anomaly"
)

// LearnBlockType describes one registered learn block kind: the learn
// half of the impulse design catalog, mirroring the dsp package's block
// registry (paper Sec. 4.3 — the learn blocks the Studio offers).
type LearnBlockType struct {
	// Type is the identifier used in LearnBlockSpec.Type.
	Type string
	// Description is a one-line human-readable summary for catalogs.
	Description string
	// Defaults is the accepted hyperparameter set with default values
	// (the block's param schema).
	Defaults map[string]float64
	// Trainable reports whether the platform can fit this block.
	Trainable bool
}

// learnRegistry maps learn block type names to their descriptors. It
// backs impulse deserialization and the REST API's block catalog,
// extending the registry pattern of dsp.Register to learn blocks.
var learnRegistry = map[string]LearnBlockType{}

// RegisterLearn adds a learn block type to the registry. It panics on
// duplicates, which indicates a programmer error at init time.
func RegisterLearn(t LearnBlockType) {
	if t.Type == "" {
		panic("core: learn block registration without a type")
	}
	if _, dup := learnRegistry[t.Type]; dup {
		panic("core: duplicate learn block registration: " + t.Type)
	}
	learnRegistry[t.Type] = t
}

// LearnNames returns the registered learn block type names, sorted so
// catalog responses are deterministic across processes.
func LearnNames() []string {
	out := make([]string, 0, len(learnRegistry))
	for n := range learnRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LearnTypes returns the registered learn block descriptors sorted by
// type name.
func LearnTypes() []LearnBlockType {
	out := make([]LearnBlockType, 0, len(learnRegistry))
	for _, n := range LearnNames() {
		out = append(out, learnRegistry[n])
	}
	return out
}

// learnTypeOf resolves a registered learn block type.
func learnTypeOf(name string) (LearnBlockType, bool) {
	t, ok := learnRegistry[name]
	return t, ok
}

func init() {
	RegisterLearn(LearnBlockType{
		Type:        LearnClassification,
		Description: "Neural network classifier over the selected DSP block outputs",
		Trainable:   true,
	})
	RegisterLearn(LearnBlockType{
		Type:        LearnAnomaly,
		Description: "K-means anomaly detector scoring features against the training distribution",
		Defaults:    map[string]float64{"clusters": 3},
		Trainable:   true,
	})
}
