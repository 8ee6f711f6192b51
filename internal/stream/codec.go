package stream

import (
	"encoding/json"
	"fmt"
)

// The JSON forms below serve everything that is not a wire batch:
// durable checkpoints, migrated and staged window state, and control
// payloads. Batches on the wire use the binary codec in wire.go.

// wireValue is the JSON form of a Value: {"t":"int","v":...}.
type wireValue struct {
	T string          `json:"t"`
	V json.RawMessage `json:"v,omitempty"`
}

// MarshalJSON encodes the value as tagged JSON.
func (v Value) MarshalJSON() ([]byte, error) {
	var payload any
	switch v.typ {
	case TypeInvalid:
		return json.Marshal(wireValue{T: "null"})
	case TypeInt:
		payload = v.i
	case TypeDouble:
		payload = v.f
	case TypeString:
		payload = v.s
	case TypeBool:
		payload = v.i != 0
	case TypeTimestamp:
		payload = v.i
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireValue{T: v.typ.String(), V: raw})
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	var w wireValue
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	switch w.T {
	case "null", "invalid", "":
		*v = Null
		return nil
	case "int":
		var n int64
		if err := json.Unmarshal(w.V, &n); err != nil {
			return err
		}
		*v = IntValue(n)
	case "double":
		var f float64
		if err := json.Unmarshal(w.V, &f); err != nil {
			return err
		}
		*v = DoubleValue(f)
	case "string":
		var s string
		if err := json.Unmarshal(w.V, &s); err != nil {
			return err
		}
		*v = StringValue(s)
	case "bool":
		var b bool
		if err := json.Unmarshal(w.V, &b); err != nil {
			return err
		}
		*v = BoolValue(b)
	case "timestamp":
		var ms int64
		if err := json.Unmarshal(w.V, &ms); err != nil {
			return err
		}
		*v = TimestampMillis(ms)
	default:
		return fmt.Errorf("stream: unknown wire value type %q", w.T)
	}
	return nil
}

// wireTuple is the JSON form of a Tuple.
type wireTuple struct {
	Values  []Value `json:"values"`
	Arrival int64   `json:"arrival,omitempty"`
	Seq     uint64  `json:"seq,omitempty"`
}

// MarshalJSON encodes the tuple as JSON.
func (t Tuple) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireTuple{Values: t.Values, Arrival: t.ArrivalMillis, Seq: t.Seq})
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (t *Tuple) UnmarshalJSON(data []byte) error {
	var w wireTuple
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	t.Values = w.Values
	t.ArrivalMillis = w.Arrival
	t.Seq = w.Seq
	return nil
}

// wireField and wireSchema serialize schemas.
type wireField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// MarshalJSON encodes the schema as an ordered field list.
func (s *Schema) MarshalJSON() ([]byte, error) {
	out := make([]wireField, 0, s.Len())
	for _, f := range s.fields {
		out = append(out, wireField{Name: f.Name, Type: f.Type.String()})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (s *Schema) UnmarshalJSON(data []byte) error {
	var ws []wireField
	if err := json.Unmarshal(data, &ws); err != nil {
		return err
	}
	fields := make([]Field, 0, len(ws))
	for _, w := range ws {
		ft, err := ParseFieldType(w.Type)
		if err != nil {
			return err
		}
		fields = append(fields, Field{Name: w.Name, Type: ft})
	}
	ns, err := NewSchema(fields...)
	if err != nil {
		return err
	}
	*s = *ns
	return nil
}
