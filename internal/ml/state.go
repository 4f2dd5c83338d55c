package ml

import (
	"fmt"
	"hash/crc32"

	"fiat/internal/wire"
)

// CompiledModelVersion versions the serialized CompiledModel format; the
// decoder rejects any other version, so a model written by a different
// layout of these arenas can never be half-deserialized.
const CompiledModelVersion uint16 = 1

// Kind bytes of the compiled families. Stable on-disk identifiers — never
// renumber. Kinds 3–9 belonged to the GaussianNB, DecisionTree,
// RandomForest, AdaBoost, LinearSVC, KNN and MLP compilers, which were
// retired to shrink the decoder that snapshot bytes reach: FIAT deploys
// BernoulliNB, and NearestCentroid is the one alternative Table 3 weighs.
// Those numbers are never to be reused, so an old blob can never decode as a
// different family; DecodeCompiled rejects them as unknown.
const (
	kindCentroid  uint8 = 1
	kindBernoulli uint8 = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeCompiled serializes a compiled model's frozen tables (the shared
// arenas plus the folded prescaler). Scratch buffers are not serialized —
// the decoder re-allocates them exactly as Clone does. The encoding is
// canonical: equal frozen tables produce equal bytes.
func EncodeCompiled(m CompiledModel) ([]byte, error) {
	b := wire.AppendU16(nil, CompiledModelVersion)
	switch c := m.(type) {
	case *compiledCentroid:
		b = wire.AppendU8(b, kindCentroid)
		b = appendPrescaler(b, &c.pre)
		b = wire.AppendF64s(b, c.cen)
		b = wire.AppendInts(b, c.classes)
		b = wire.AppendI64(b, int64(c.d))
		b = wire.AppendU8(b, uint8(c.metric))
	case *compiledBernoulli:
		b = wire.AppendU8(b, kindBernoulli)
		b = appendPrescaler(b, &c.pre)
		b = wire.AppendF64(b, c.threshold)
		b = wire.AppendF64s(b, c.thr)
		b = wire.AppendF64s(b, c.lpT)
		b = wire.AppendF64s(b, c.prior)
		b = wire.AppendF64s(b, c.lp)
		b = wire.AppendI64(b, int64(c.d))
		b = wire.AppendInts(b, c.classes)
	default:
		return nil, fmt.Errorf("ml: cannot encode %T", m)
	}
	return b, nil
}

// CompiledChecksum is the CRC32C of the canonical encoding — the stable
// fingerprint snapshot load uses to reject model/artifact skew.
func CompiledChecksum(m CompiledModel) (uint32, error) {
	b, err := EncodeCompiled(m)
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(b, castagnoli), nil
}

// DecodeCompiled reconstructs a compiled model from its serialized form and
// returns the remaining bytes. Structural inconsistencies (table lengths
// that do not agree with the class count and width, an unknown metric or
// kind) fail closed with an error, so any accepted model infers on a row of
// its width without panicking; the returned model owns fresh scratch,
// exactly as Clone would produce.
func DecodeCompiled(data []byte) (CompiledModel, []byte, error) {
	r := wire.NewReader(data)
	if v := r.U16(); r.Err() == nil && v != CompiledModelVersion {
		return nil, nil, fmt.Errorf("ml: compiled-model format version %d, want %d", v, CompiledModelVersion)
	}
	kind := r.U8()
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("ml: decode compiled model: %w", r.Err())
	}
	var (
		m   CompiledModel
		err error
	)
	switch kind {
	case kindCentroid:
		m, err = decodeCentroid(r)
	case kindBernoulli:
		m, err = decodeBernoulli(r)
	default:
		return nil, nil, fmt.Errorf("ml: unknown compiled-model kind %d", kind)
	}
	if err != nil {
		return nil, nil, err
	}
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("ml: decode compiled model: %w", r.Err())
	}
	return m, r.Rest(), nil
}

func appendPrescaler(b []byte, p *prescaler) []byte {
	b = wire.AppendF64s(b, p.mean)
	b = wire.AppendF64s(b, p.scale)
	return b
}

func readPrescaler(r *wire.Reader) (prescaler, error) {
	var p prescaler
	p.mean = r.F64s()
	p.scale = r.F64s()
	if r.Err() != nil {
		return prescaler{}, r.Err()
	}
	if len(p.mean) != len(p.scale) {
		return prescaler{}, fmt.Errorf("ml: prescaler mean/scale widths differ (%d,%d)", len(p.mean), len(p.scale))
	}
	if p.mean != nil {
		p.z = make([]float64, len(p.mean))
	}
	return p, nil
}

func decodeCentroid(r *wire.Reader) (CompiledModel, error) {
	pre, err := readPrescaler(r)
	if err != nil {
		return nil, err
	}
	c := &compiledCentroid{pre: pre}
	c.cen = r.F64s()
	c.classes = r.Ints()
	c.d = int(r.I64())
	c.metric = Distance(r.U8())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if !spans(len(c.cen), len(c.classes), c.d) {
		return nil, fmt.Errorf("ml: centroid arena %d does not match %d classes x %d", len(c.cen), len(c.classes), c.d)
	}
	if c.metric > Chebyshev {
		return nil, fmt.Errorf("ml: unknown centroid metric %d", c.metric)
	}
	return c, nil
}

func decodeBernoulli(r *wire.Reader) (CompiledModel, error) {
	pre, err := readPrescaler(r)
	if err != nil {
		return nil, err
	}
	c := &compiledBernoulli{pre: pre}
	c.threshold = r.F64()
	c.thr = r.F64s()
	c.lpT = r.F64s()
	c.prior = r.F64s()
	c.lp = r.F64s()
	c.d = int(r.I64())
	c.classes = r.Ints()
	if r.Err() != nil {
		return nil, r.Err()
	}
	k := len(c.classes)
	if len(c.prior) != k || !spans(len(c.lp), 2*k, c.d) {
		return nil, fmt.Errorf("ml: bernoulli tables do not match %d classes x %d", k, c.d)
	}
	if (c.thr == nil) != (c.lpT == nil) {
		return nil, fmt.Errorf("ml: bernoulli folded tables half-present")
	}
	if c.thr != nil && (len(c.thr) != c.d || len(c.lpT) != len(c.lp)) {
		return nil, fmt.Errorf("ml: bernoulli folded tables do not match %d classes x %d", k, c.d)
	}
	c.scores = make([]float64, k)
	return c, nil
}

// spans reports whether an arena of n elements is exactly rows×width. It
// divides instead of multiplying, so a forged width cannot overflow the
// product back onto n; zero rows must come with zero width.
func spans(n, rows, width int) bool {
	if rows == 0 {
		return n == 0 && width == 0
	}
	return width >= 0 && n%rows == 0 && n/rows == width
}
