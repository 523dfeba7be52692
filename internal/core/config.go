package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"edgepulse/internal/dsp"
)

// ConfigVersion is the current impulse design schema version. Version 2
// models the impulse as a block graph: an ordered list of DSP block
// specs feeding a list of learn block specs (paper Sec. 3, Fig. 2 — and
// the sensor-fusion / multi-head designs real impulses carry).
const ConfigVersion = 2

// DSPBlockSpec is one feature-extraction block in the design graph.
type DSPBlockSpec struct {
	// Name is the block's instance name, unique within the impulse and
	// referenced by learn blocks' Inputs. Defaults to Type.
	Name string `json:"name,omitempty"`
	// Type is the registered dsp block type ("mfe", "spectral-analysis", ...).
	Type string `json:"type"`
	// Params configures the block; omitted keys take block defaults.
	Params map[string]float64 `json:"params,omitempty"`
	// Axes selects which input axes this block consumes (time-series
	// inputs only, by index into the interleaved signal). Empty = all.
	Axes []int `json:"axes,omitempty"`
}

// LearnBlockSpec is one learn block in the design graph.
type LearnBlockSpec struct {
	// Name is the block's instance name, unique within the impulse.
	// Defaults to Type.
	Name string `json:"name,omitempty"`
	// Type is a registered learn block type: "classification" or
	// "anomaly".
	Type string `json:"type"`
	// Inputs names the DSP blocks whose outputs this block consumes;
	// its feature vector is the concatenation of those blocks' outputs
	// in impulse order. Empty = all DSP blocks.
	Inputs []string `json:"inputs,omitempty"`
	// Params configures the block (anomaly: "clusters").
	Params map[string]float64 `json:"params,omitempty"`
}

// Config is the serializable impulse design (block layout and
// hyperparameters, without trained weights — those travel separately in
// the EPTM model format). It is what the Studio stores per project and
// what the REST API accepts. The wire format is versioned: ParseConfig
// accepts both the legacy single-DSP v1 schema and the v2 block graph,
// and always yields a normalized v2 value.
type Config struct {
	Version int              `json:"version"`
	Name    string           `json:"name"`
	Input   InputBlock       `json:"input"`
	DSP     []DSPBlockSpec   `json:"dsp"`
	Learn   []LearnBlockSpec `json:"learn"`
	Classes []string         `json:"classes,omitempty"`
}

// configV1 is the legacy schema: exactly one DSP block, an implicit
// classifier, and an optional K-means anomaly block. It is accepted on
// the wire and migrated to v2.
type configV1 struct {
	Version   int                `json:"version,omitempty"` // tolerated when explicitly 1
	Name      string             `json:"name"`
	Input     InputBlock         `json:"input"`
	DSPName   string             `json:"dsp_name"`
	DSPParams map[string]float64 `json:"dsp_params,omitempty"`
	Classes   []string           `json:"classes,omitempty"`
	// AnomalyClusters > 0 enables the K-means anomaly learn block.
	AnomalyClusters int `json:"anomaly_clusters,omitempty"`
}

// migrate lifts a v1 design into the v2 block graph: the single DSP
// block keeps its type as instance name, the class list becomes an
// explicit classification block, and anomaly_clusters becomes an
// anomaly block with a clusters param.
func (c configV1) migrate() Config {
	out := Config{
		Version: ConfigVersion,
		Name:    c.Name,
		Input:   c.Input,
		Classes: c.Classes,
		DSP:     []DSPBlockSpec{{Name: c.DSPName, Type: c.DSPName, Params: c.DSPParams}},
	}
	if len(c.Classes) > 0 {
		out.Learn = append(out.Learn, LearnBlockSpec{Name: LearnClassification, Type: LearnClassification})
	}
	if c.AnomalyClusters > 0 {
		out.Learn = append(out.Learn, LearnBlockSpec{
			Name: LearnAnomaly, Type: LearnAnomaly,
			Params: map[string]float64{"clusters": float64(c.AnomalyClusters)},
		})
	}
	return out
}

// normalize fills schema defaults in place: the version stamp, unique
// block instance names (Name defaults to Type, disambiguated with a
// numeric suffix), and an implicit classification block when a class
// list is given without any learn blocks. Explicit duplicate names are
// rejected.
func (c *Config) normalize() error {
	if c.Version == 0 {
		c.Version = ConfigVersion
	}
	if c.Version != ConfigVersion {
		return fmt.Errorf("core: config version %d cannot be normalized (want %d)", c.Version, ConfigVersion)
	}
	seen := map[string]bool{}
	for i := range c.DSP {
		spec := &c.DSP[i]
		if spec.Name == "" {
			spec.Name = uniqueName(spec.Type, seen)
		} else if seen[spec.Name] {
			return fmt.Errorf("core: duplicate dsp block name %q", spec.Name)
		}
		seen[spec.Name] = true
	}
	if len(c.Learn) == 0 && len(c.Classes) > 0 {
		c.Learn = []LearnBlockSpec{{Type: LearnClassification}}
	}
	seen = map[string]bool{}
	for i := range c.Learn {
		spec := &c.Learn[i]
		if spec.Name == "" {
			spec.Name = uniqueName(spec.Type, seen)
		} else if seen[spec.Name] {
			return fmt.Errorf("core: duplicate learn block name %q", spec.Name)
		}
		seen[spec.Name] = true
	}
	return nil
}

// uniqueName returns base, or base-2, base-3, ... if already taken.
func uniqueName(base string, seen map[string]bool) string {
	name := base
	for n := 2; seen[name]; n++ {
		name = base + "-" + strconv.Itoa(n)
	}
	return name
}

// Config extracts the serializable design from an impulse, always in the
// normalized v2 schema. When the impulse carries no explicit learn
// specs, they are derived from its trained state (classes → classifier,
// fitted K-means → anomaly block), matching the legacy behavior.
func (imp *Impulse) Config() Config {
	c := Config{
		Version: ConfigVersion,
		Name:    imp.Name,
		Input:   imp.Input,
		Classes: append([]string(nil), imp.Classes...),
	}
	for _, inst := range imp.DSP {
		c.DSP = append(c.DSP, DSPBlockSpec{
			Name:   inst.Name,
			Type:   inst.Block.Name(),
			Params: inst.Block.Params(),
			Axes:   append([]int(nil), inst.Axes...),
		})
	}
	if len(imp.Learn) > 0 {
		for _, spec := range imp.Learn {
			c.Learn = append(c.Learn, spec.clone())
		}
	} else {
		if len(imp.Classes) > 0 {
			c.Learn = append(c.Learn, LearnBlockSpec{Name: LearnClassification, Type: LearnClassification})
		}
		if imp.Anomaly != nil {
			c.Learn = append(c.Learn, LearnBlockSpec{
				Name: LearnAnomaly, Type: LearnAnomaly,
				Params: map[string]float64{"clusters": float64(len(imp.Anomaly.Centroids))},
			})
		}
	}
	c.normalize()
	return c
}

func (s LearnBlockSpec) clone() LearnBlockSpec {
	out := s
	out.Inputs = append([]string(nil), s.Inputs...)
	if s.Params != nil {
		out.Params = make(map[string]float64, len(s.Params))
		for k, v := range s.Params {
			out.Params[k] = v
		}
	}
	return out
}

// FromConfig instantiates an impulse (untrained) from a design. The
// config may be v2 or a hand-built value without a version stamp; v1
// wire payloads should go through ParseConfig first.
func FromConfig(c Config) (*Impulse, error) {
	if c.Name == "" {
		return nil, fmt.Errorf("core: config has no name")
	}
	if err := c.normalize(); err != nil {
		return nil, err
	}
	if err := c.Input.Validate(); err != nil {
		return nil, err
	}
	if len(c.DSP) == 0 {
		return nil, fmt.Errorf("core: config has no dsp blocks")
	}
	imp := &Impulse{
		Name:    c.Name,
		Input:   c.Input,
		Classes: append([]string(nil), c.Classes...),
	}
	for _, spec := range c.DSP {
		block, err := dsp.New(spec.Type, spec.Params)
		if err != nil {
			return nil, fmt.Errorf("core: dsp block %q: %w", spec.Name, err)
		}
		imp.DSP = append(imp.DSP, DSPInstance{
			Name:  spec.Name,
			Block: block,
			Axes:  append([]int(nil), spec.Axes...),
		})
	}
	for _, spec := range c.Learn {
		imp.Learn = append(imp.Learn, spec.clone())
	}
	if err := imp.validateDesign(); err != nil {
		return nil, err
	}
	if _, err := imp.FeatureShape(); err != nil {
		return nil, err
	}
	return imp, nil
}

// MarshalJSON round-trips the impulse design (not weights).
func (imp *Impulse) MarshalJSON() ([]byte, error) {
	return json.Marshal(imp.Config())
}

// ParseConfig decodes a JSON impulse design. Both schema versions are
// accepted — a payload without a "version" field (or with "version": 1)
// is decoded as the legacy single-DSP schema and migrated — and the
// result is always a normalized v2 config. Unknown fields and unknown
// versions are rejected.
func ParseConfig(data []byte) (Config, error) {
	var probe struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Config{}, fmt.Errorf("core: bad impulse config: %w", err)
	}
	switch {
	case probe.Version == nil || *probe.Version == 1:
		var legacy configV1
		if err := strictUnmarshal(data, &legacy); err != nil {
			return Config{}, fmt.Errorf("core: bad v1 impulse config: %w", err)
		}
		c := legacy.migrate()
		if err := c.normalize(); err != nil {
			return Config{}, err
		}
		return c, nil
	case *probe.Version == ConfigVersion:
		var c Config
		if err := strictUnmarshal(data, &c); err != nil {
			return Config{}, fmt.Errorf("core: bad v2 impulse config: %w", err)
		}
		if err := c.normalize(); err != nil {
			return Config{}, err
		}
		return c, nil
	default:
		return Config{}, fmt.Errorf("core: unsupported impulse config version %d (supported: 1, %d)", *probe.Version, ConfigVersion)
	}
}

// strictUnmarshal decodes JSON rejecting unknown fields, so schema typos
// (and v2 payloads missing their version stamp) fail loudly instead of
// silently dropping design information.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
