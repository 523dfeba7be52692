package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"edgepulse/internal/anomaly"
	"edgepulse/internal/tensor"
	"edgepulse/internal/tflm"
)

// An impulse artefact is the one serialised form of an impulse: the EIM
// a Linux target runs (paper Sec. 4.6), a project's impulse.eim on disk
// and the impulse a follower replicates. It is the magic "EPIM", then
// chunks, each a little-endian uint32 length and that many bytes:
//
//	design   the Config as JSON
//	float    the float32 model (EPTM); empty without one
//	int8     the int8 model (EPTM); empty without one
//	anomaly  the fitted K-means block; empty without one: uint32 k,
//	         uint32 dim, k*dim centroid values, k spreads (float32 LE)
//
// Artefacts written before the anomaly chunk existed end after int8.
const artifactMagic = "EPIM"

// MarshalArtifact serialises the impulse design with its trained
// models and anomaly block. It refuses an impulse ParseArtifact would
// refuse, so every artefact it writes loads.
func (imp *Impulse) MarshalArtifact() ([]byte, error) {
	cfg := imp.Config()
	if _, err := FromConfig(cfg); err != nil {
		return nil, err
	}
	if err := imp.checkLearned(); err != nil {
		return nil, err
	}
	var chunks [4][]byte
	var err error
	if chunks[0], err = json.Marshal(cfg); err != nil {
		return nil, err
	}
	if imp.Model != nil {
		if chunks[1], err = tflm.Marshal(tflm.ModelFileFromFloat(imp.Model)); err != nil {
			return nil, err
		}
	}
	if imp.QModel != nil {
		if chunks[2], err = tflm.Marshal(tflm.ModelFileFromQuant(imp.QModel)); err != nil {
			return nil, err
		}
	}
	if km := imp.Anomaly; km != nil {
		chunks[3] = binary.LittleEndian.AppendUint32(nil, uint32(len(km.Centroids)))
		chunks[3] = binary.LittleEndian.AppendUint32(chunks[3], uint32(len(km.Centroids[0])))
		for _, v := range append(slices.Concat(km.Centroids...), km.Spread...) {
			chunks[3] = binary.LittleEndian.AppendUint32(chunks[3], math.Float32bits(v))
		}
	}
	return AssembleArtifact(chunks[:]...), nil
}

// AssembleArtifact frames already serialised chunks, in artefact order,
// as an artefact. The design and model files of a project stored before
// impulse.eim are its first three.
func AssembleArtifact(chunks ...[]byte) []byte {
	out := []byte(artifactMagic)
	for _, c := range chunks {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c)))
		out = append(out, c...)
	}
	return out
}

// ParseArtifact rebuilds an impulse from an artefact. It is the one
// loader of a serialised impulse, and it checks what it loads: each
// model chunk holds the precision it claims, and the models and the
// anomaly block fit the design (checkLearned).
func ParseArtifact(data []byte) (*Impulse, error) {
	if len(data) < len(artifactMagic) || string(data[:len(artifactMagic)]) != artifactMagic {
		return nil, fmt.Errorf("core: not an impulse artefact")
	}
	var chunks [][]byte
	for rest := data[len(artifactMagic):]; len(rest) > 0; {
		if len(rest) < 4 || len(chunks) == 4 {
			return nil, fmt.Errorf("core: artefact has %d trailing bytes", len(rest))
		}
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-4) {
			return nil, fmt.Errorf("core: artefact chunk %d: length %d exceeds data", len(chunks), n)
		}
		chunks, rest = append(chunks, rest[4:4+n]), rest[4+n:]
	}
	if len(chunks) < 3 {
		return nil, fmt.Errorf("core: artefact has %d chunks, want 3 or 4", len(chunks))
	}
	cfg, err := ParseConfig(chunks[0])
	if err != nil {
		return nil, err
	}
	imp, err := FromConfig(cfg)
	if err != nil {
		return nil, err
	}
	if len(chunks[1]) > 0 {
		mf, err := tflm.Unmarshal(chunks[1])
		if err != nil {
			return nil, err
		}
		if imp.Model = mf.Float; imp.Model == nil {
			return nil, fmt.Errorf("core: artefact float chunk holds no float model")
		}
	}
	if len(chunks[2]) > 0 {
		mf, err := tflm.Unmarshal(chunks[2])
		if err != nil {
			return nil, err
		}
		if imp.QModel = mf.Quant; imp.QModel == nil {
			return nil, fmt.Errorf("core: artefact int8 chunk holds no int8 model")
		}
	}
	if len(chunks) == 4 && len(chunks[3]) > 0 {
		if imp.Anomaly, err = parseKMeans(chunks[3]); err != nil {
			return nil, err
		}
	}
	if err := imp.checkLearned(); err != nil {
		return nil, err
	}
	return imp, nil
}

// parseKMeans reads the anomaly chunk.
func parseKMeans(b []byte) (*anomaly.KMeans, error) {
	if len(b) < 8 || len(b)%4 != 0 {
		return nil, fmt.Errorf("core: artefact anomaly chunk of %d bytes", len(b))
	}
	k, dim := uint64(binary.LittleEndian.Uint32(b)), uint64(binary.LittleEndian.Uint32(b[4:]))
	if k == 0 || dim == 0 || uint64(len(b)-8)/4 != k*dim+k {
		return nil, fmt.Errorf("core: artefact anomaly chunk of %d bytes for k=%d dim=%d", len(b), k, dim)
	}
	vals := make([]float32, k*dim+k)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[8+4*i:]))
	}
	km := &anomaly.KMeans{Spread: vals[k*dim:]}
	for c := range k {
		km.Centroids = append(km.Centroids, vals[c*dim:(c+1)*dim:(c+1)*dim])
	}
	return km, nil
}

// checkLearned reports whether the trained state fits the design: the
// float and the int8 model each take the classifier's feature view and
// score every class, and the anomaly block has one spread per centroid
// and centroids as long as its feature view.
func (imp *Impulse) checkLearned() error {
	if m := imp.Model; m != nil {
		if err := imp.checkModel("float", m.InputShape, m.NumClasses); err != nil {
			return err
		}
	}
	if q := imp.QModel; q != nil {
		if err := imp.checkModel("int8", q.InputShape, q.NumClasses); err != nil {
			return err
		}
	}
	km := imp.Anomaly
	if km == nil {
		return nil
	}
	spec, _ := imp.AnomalySpec()
	shape, err := imp.LearnShape(spec)
	if err != nil {
		return err
	}
	if len(km.Centroids) == 0 || len(km.Spread) != len(km.Centroids) {
		return fmt.Errorf("core: anomaly block has %d centroids and %d spreads", len(km.Centroids), len(km.Spread))
	}
	for _, c := range km.Centroids {
		if len(c) != shape.Elems() {
			return fmt.Errorf("core: anomaly centroid of %d values != feature view %v", len(c), shape)
		}
	}
	return nil
}

// checkModel reports whether a model with the given input shape and
// class count fits the design. A design without a classification block
// feeds a model the composite feature vector.
func (imp *Impulse) checkModel(precision string, in tensor.Shape, classes int) error {
	shape, err := imp.ClassifierShape()
	if err != nil {
		if shape, err = imp.FeatureShape(); err != nil {
			return err
		}
	}
	if !in.Equal(shape) {
		return fmt.Errorf("core: %s model input %v != feature shape %v", precision, in, shape)
	}
	if classes != len(imp.Classes) {
		return fmt.Errorf("core: %s model has %d classes, impulse has %d", precision, classes, len(imp.Classes))
	}
	return nil
}
