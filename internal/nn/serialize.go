package nn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Snapshot is a JSON-serializable dump of a parameter set, keyed by
// parameter name in declaration order. It is the on-disk model format used
// by cmd/mocc-train and cmd/mocc-bench.
type Snapshot struct {
	Format string      `json:"format"`
	Params []ParamDump `json:"params"`
}

// ParamDump is one parameter tensor within a Snapshot.
type ParamDump struct {
	Name   string   `json:"name"`
	Values FloatVec `json:"values"`
}

// FloatVec is a []float64 whose JSON form tolerates non-finite values:
// NaN/±Inf are encoded as the strings "NaN", "+Inf", "-Inf" (plain JSON has
// no tokens for them — encoding/json refuses to marshal NaN and errors on
// out-of-range literals like 1e999). This keeps a diverged or corrupted
// model snapshottable for post-mortem while load-time validation
// (Snapshot.Validate, Snapshot.Restore) refuses to deploy it.
type FloatVec []float64

// MarshalJSON implements json.Marshaler: finite values serialize exactly as
// encoding/json would, non-finite values as quoted tokens.
func (v FloatVec) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		switch {
		case math.IsNaN(x):
			b.WriteString(`"NaN"`)
		case math.IsInf(x, 1):
			b.WriteString(`"+Inf"`)
		case math.IsInf(x, -1):
			b.WriteString(`"-Inf"`)
		default:
			b.Write(strconv.AppendFloat(nil, x, 'g', -1, 64))
		}
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting numbers and the
// quoted non-finite tokens written by MarshalJSON.
func (v *FloatVec) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make([]float64, len(raw))
	for i, r := range raw {
		if len(r) > 0 && r[0] == '"' {
			var s string
			if err := json.Unmarshal(r, &s); err != nil {
				return err
			}
			switch s {
			case "NaN":
				out[i] = math.NaN()
			case "+Inf", "Inf":
				out[i] = math.Inf(1)
			case "-Inf":
				out[i] = math.Inf(-1)
			default:
				return fmt.Errorf("nn: value %d is %q, want a number or NaN/+Inf/-Inf", i, s)
			}
			continue
		}
		f, err := strconv.ParseFloat(string(r), 64)
		if err != nil {
			return fmt.Errorf("nn: value %d: %v", i, err)
		}
		out[i] = f
	}
	*v = out
	return nil
}

// snapshotFormat identifies the serialization schema version.
const snapshotFormat = "mocc-model-v1"

// TakeSnapshot captures current parameter values.
func TakeSnapshot(ps []*Param) Snapshot {
	var s Snapshot
	s.Refresh(ps)
	return s
}

// Refresh overwrites s with the current values of ps, reusing the storage s
// already holds: refreshing a snapshot of the same network copies values and
// allocates nothing.
func (s *Snapshot) Refresh(ps []*Param) {
	s.Format = snapshotFormat
	if len(s.Params) != len(ps) {
		s.Params = make([]ParamDump, len(ps))
	}
	for i, p := range ps {
		s.Params[i].Name = p.Name
		s.Params[i].Values = append(s.Params[i].Values[:0], p.Value...)
	}
}

// Validate rejects snapshots that would poison a live model: every value of
// every tensor must be finite. The error names the offending tensor and
// element so a corrupted checkpoint is diagnosable from the message alone.
func (s Snapshot) Validate() error {
	for _, d := range s.Params {
		for i, x := range d.Values {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("nn: snapshot param %q has non-finite value %v at element %d", d.Name, x, i)
			}
		}
	}
	return nil
}

// Restore loads snapshot values into ps. Parameters are matched positionally
// and validated by name and size, so a snapshot can only be restored into a
// network of the identical architecture; non-finite values are rejected
// (see Validate) so a corrupted checkpoint can never reach deployment.
func (s Snapshot) Restore(ps []*Param) error {
	if s.Format != snapshotFormat {
		return fmt.Errorf("nn: unknown snapshot format %q", s.Format)
	}
	if len(s.Params) != len(ps) {
		return fmt.Errorf("nn: snapshot has %d params, network has %d", len(s.Params), len(ps))
	}
	for i, d := range s.Params {
		if d.Name != ps[i].Name {
			return fmt.Errorf("nn: snapshot param %d is %q, network expects %q", i, d.Name, ps[i].Name)
		}
		if len(d.Values) != len(ps[i].Value) {
			return fmt.Errorf("nn: snapshot param %q has %d values, network expects %d",
				d.Name, len(d.Values), len(ps[i].Value))
		}
	}
	if err := s.Validate(); err != nil {
		return err
	}
	for i, d := range s.Params {
		copy(ps[i].Value, d.Values)
	}
	return nil
}

// CheckFinite scans live parameters for non-finite values, returning an
// error naming the first offending tensor and element. Online adaptation
// runs it before publishing an epoch so a diverged update never reaches
// live applications.
func CheckFinite(ps []*Param) error {
	for _, p := range ps {
		for i, x := range p.Value {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("nn: param %q has non-finite value %v at element %d", p.Name, x, i)
			}
		}
	}
	return nil
}

// Write serializes the snapshot as JSON.
func (s Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot from r.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("nn: decoding snapshot: %w", err)
	}
	return s, nil
}

// SaveFile writes the snapshot to the named file.
func (s Snapshot) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: creating model file: %w", err)
	}
	defer f.Close()
	if err := s.Write(f); err != nil {
		return fmt.Errorf("nn: writing model file: %w", err)
	}
	return f.Sync()
}

// LoadFile reads a snapshot from the named file.
func LoadFile(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("nn: opening model file: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}
