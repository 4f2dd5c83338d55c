package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"fiat/internal/keystore"
	"fiat/internal/sensors"
)

// attestMagic and attestVersion frame the attestation wire format.
const (
	attestMagic   = 0x46417431 // "FAt1"
	attestVersion = 1
	attestMACLen  = 32
)

// Attestation is the client app's proof of interaction: which IoT app was
// in the foreground, when, and the 48 sensor features of the interaction
// window. The proxy — not the phone — runs the humanness model over the
// features (§5.3: the app "reports raw sensor data – or more precisely
// features extracted as per the ML model – to the IoT proxy").
type Attestation struct {
	Device   string
	At       time.Time
	Features []float64
}

// codec errors.
var (
	ErrBadAttestation = errors.New("core: malformed attestation")
	ErrBadMAC         = errors.New("core: attestation MAC invalid")
)

// EncodeAttestation serializes and authenticates an attestation with the
// pairing key held in ks. The wire format is, big-endian:
//
//	[magic u32][version u8][name length u8][name][At UnixNano i64]
//	[sensors.FeatureDim × feature float64 bits][HMAC-SHA256 over all before]
func EncodeAttestation(a *Attestation, ks *keystore.Store) ([]byte, error) {
	if len(a.Features) != sensors.FeatureDim {
		return nil, fmt.Errorf("%w: %d features, want %d", ErrBadAttestation, len(a.Features), sensors.FeatureDim)
	}
	if len(a.Device) > 255 {
		return nil, fmt.Errorf("%w: device name too long", ErrBadAttestation)
	}
	buf := make([]byte, 0, 4+1+1+len(a.Device)+8+8*sensors.FeatureDim+attestMACLen)
	buf = binary.BigEndian.AppendUint32(buf, attestMagic)
	buf = append(buf, attestVersion, byte(len(a.Device)))
	buf = append(buf, a.Device...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.At.UnixNano()))
	for _, f := range a.Features {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
	}
	mac, err := ks.MAC(keystore.PairingAlias, buf)
	if err != nil {
		return nil, err
	}
	return append(buf, mac...), nil
}

// DecodeAttestation parses and verifies an attestation against the default
// pairing key in ks.
func DecodeAttestation(payload []byte, ks *keystore.Store) (*Attestation, error) {
	return DecodeAttestationAliases(payload, ks, keystore.PairingAlias)
}

// DecodeAttestationAliases verifies against any of the given pairing
// aliases — a proxy with several enrolled phones holds one key per phone.
func DecodeAttestationAliases(payload []byte, ks *keystore.Store, aliases ...string) (*Attestation, error) {
	minLen := 4 + 1 + 1 + 8 + 8*sensors.FeatureDim + attestMACLen
	if len(payload) < minLen {
		return nil, ErrBadAttestation
	}
	body, mac := payload[:len(payload)-attestMACLen], payload[len(payload)-attestMACLen:]
	ok := false
	for _, alias := range aliases {
		if ks.VerifyMAC(alias, body, mac) {
			ok = true
			break
		}
	}
	if !ok {
		return nil, ErrBadMAC
	}
	// The body is at least 4+1+1+8+8*FeatureDim bytes, so the header
	// bytes exist; only the name length can run the fields past its end.
	// Bytes after the features are ignored.
	if binary.BigEndian.Uint32(body) != attestMagic || body[4] != attestVersion {
		return nil, ErrBadAttestation
	}
	nameEnd := 6 + int(body[5])
	if len(body) < nameEnd+8+8*sensors.FeatureDim {
		return nil, ErrBadAttestation
	}
	name := body[6:nameEnd]
	nanos := int64(binary.BigEndian.Uint64(body[nameEnd:]))
	feats := make([]float64, sensors.FeatureDim)
	for i, off := 0, nameEnd+8; i < len(feats); i, off = i+1, off+8 {
		feats[i] = math.Float64frombits(binary.BigEndian.Uint64(body[off:]))
	}
	return &Attestation{Device: string(name), At: time.Unix(0, nanos).UTC(), Features: feats}, nil
}

// ValidationTTL is how long a verified human interaction authorizes manual
// traffic for its device. Manual IoT commands land within a couple of
// seconds of the touch (Table 7); a short TTL narrows the piggybacking
// window the Discussion describes.
const ValidationTTL = 10 * time.Second

// validationStore remembers the proxy's recent humanness verdicts. It is
// read-mostly shared state on the packet path: every manual-event decision
// reads it under RLock while holding the device mutex, and only
// HandleAttestation writes.
type validationStore struct {
	mu       sync.RWMutex
	byDevice map[string][]validation
}

type validation struct {
	at    time.Time
	human bool
}

func newValidationStore() *validationStore {
	return &validationStore{byDevice: make(map[string][]validation)}
}

// add records a verdict and prunes expired entries.
func (s *validationStore) add(device string, at time.Time, human bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.byDevice[device]
	keep := list[:0]
	for _, v := range list {
		if at.Sub(v.at) < ValidationTTL {
			keep = append(keep, v)
		}
	}
	s.byDevice[device] = append(keep, validation{at: at, human: human})
}

// skewTolerance bounds how far into the decision's future a validation
// timestamp may sit and still vouch for it — the batched engine stamps a
// whole batch with one instant, so an attestation landing mid-batch can be
// marginally "ahead" of the packets it authorizes.
const skewTolerance = time.Second

// humanRecently reports whether a verified-human interaction for device is
// live at now. Both edges of the liveness window are exclusive: a
// validation aged exactly ValidationTTL is dead, and one stamped exactly
// skewTolerance ahead does not vouch yet. (The future edge used to be
// inclusive — `!After` — admitting a validation time-shifted to exactly
// now+skewTolerance; the adversarial replay scenarios pin both sides.)
func (s *validationStore) humanRecently(device string, now time.Time) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, v := range s.byDevice[device] {
		if v.human && now.Sub(v.at) < ValidationTTL && v.at.Before(now.Add(skewTolerance)) {
			return true
		}
	}
	return false
}
