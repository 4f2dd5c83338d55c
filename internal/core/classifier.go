// Package core implements FIAT itself (§5): the server-side IoT proxy with
// its Fig 4 access-control pipeline — predictable? → event grouping →
// manual-event classification → humanness gate — plus the client-side app
// that attests human interaction, the pairing glue, the audit log, the
// brute-force lockout, the device-to-device allow DAG from the Discussion,
// and the Appendix A false-positive/negative probability model.
package core

import (
	"fmt"

	"fiat/internal/events"
	"fiat/internal/features"
	"fiat/internal/ml"
)

// EventClassifier decides whether an unpredictable event is manual.
type EventClassifier interface {
	// IsManual classifies the event from its head packets.
	IsManual(e *events.Event) bool
}

// RuleClassifier is the simple-device classifier (§4: "the size of the
// notification packets (267 and 235 Bytes) is a distinctive feature"):
// an event is manual iff a head packet carries the notification size.
type RuleClassifier struct {
	// NotificationSize is the distinctive manual-command packet length.
	NotificationSize int
}

// IsManual implements EventClassifier.
func (r RuleClassifier) IsManual(e *events.Event) bool {
	head := e.Packets
	if len(head) > features.HeadPackets {
		head = head[:features.HeadPackets]
	}
	for _, p := range head {
		if p.Size == r.NotificationSize {
			return true
		}
	}
	return false
}

// MLClassifier wraps the deployed model (§6: BernoulliNB with default
// parameters, over the first N=5 packets' features) behind a fold of the
// three-way control/automated/manual task.
type MLClassifier struct {
	model  ml.Classifier
	scaler ml.StandardScaler
	// compiled is the frozen inference template built right after Fit: the
	// estimator flattened into its zero-allocation form with the scaler
	// folded in (see ml.Compile). It is nil for every family but
	// BernoulliNB, the one FIAT deploys, and NearestCentroid; the others
	// classify through IsManual.
	compiled ml.CompiledModel
	// sum is compiled's checksum (ml.CompiledChecksum), computed once when
	// the model is compiled: a compiled model never changes, and config and
	// state identity read the sum at every checkpoint.
	sum uint32
}

// TrainMLClassifier fits the classifier on labeled events and compiles the
// fitted estimator into its frozen inference form. By default the model is
// BernoulliNB; pass a factory to substitute another family.
func TrainMLClassifier(evs []*events.Event, factory func() ml.Classifier) (*MLClassifier, error) {
	if len(evs) == 0 {
		return nil, fmt.Errorf("core: no training events")
	}
	if factory == nil {
		factory = func() ml.Classifier { return &ml.BernoulliNB{} }
	}
	X := features.ExtractAll(evs)
	y := features.MulticlassLabels(evs)
	c := &MLClassifier{model: factory()}
	Xs, err := c.scaler.FitTransform(X)
	if err != nil {
		return nil, err
	}
	if err := c.model.Fit(Xs, y); err != nil {
		return nil, err
	}
	// A model that compiles but has no codec could be neither checksummed
	// nor snapshotted, so it classifies through IsManual instead. Every
	// family the compiler emits has a codec.
	if cm, err := ml.Compile(c.model, &c.scaler); err == nil {
		if sum, err := ml.CompiledChecksum(cm); err == nil {
			c.compiled, c.sum = cm, sum
		}
	}
	return c, nil
}

// IsManual implements EventClassifier on the serialized path (extract, scale
// in place, predict): devices whose model family does not compile classify
// through it, and it is the behavioral oracle the compiled engine is diffed
// against.
func (c *MLClassifier) IsManual(e *events.Event) bool {
	x := features.Extract(e)
	c.scaler.TransformInPlace(x)
	return ml.PredictOne(c.model, x) == 2
}

// Compiled exposes the frozen inference template (nil when the model family
// is not compilable). The template's scratch is single-owner; concurrent
// users must Clone it — see CompiledEventClassifier.
func (c *MLClassifier) Compiled() ml.CompiledModel { return c.compiled }

// CompiledEventClassifier returns a frozen per-owner inference engine for
// the trained model: a clone of the compiled template plus a private feature
// scratch vector, so the full extract→scale→infer path performs zero heap
// allocations. Each concurrent owner (a registered device, a bench
// worker) needs its own. Returns nil when the model did not compile.
func (c *MLClassifier) CompiledEventClassifier() EventClassifier {
	if c == nil || c.compiled == nil {
		return nil
	}
	return &compiledEventClassifier{
		model: c.compiled.Clone(),
		sum:   c.sum,
		buf:   make([]float64, features.Dim),
	}
}

// compiledEventClassifier is one device's enforcement-phase classifier: the
// compiled model clone plus the reused extraction scratch. It is owned by
// exactly one device, so IsManual runs lock-free and allocation-free under
// the device mutex.
type compiledEventClassifier struct {
	model ml.CompiledModel
	sum   uint32 // model's checksum, taken from its template or image
	buf   []float64
}

// IsManual implements EventClassifier on the compiled path.
func (c *compiledEventClassifier) IsManual(e *events.Event) bool {
	c.buf = features.ExtractInto(e, c.buf)
	return c.model.Infer(c.buf) == 2
}

// ClassifierFor builds the per-device classifier the paper deploys: the
// packet-size rule for SP10/WP3/Nest-E-style devices, the trained ML model
// otherwise.
func ClassifierFor(simpleRule bool, notificationSize int, trained *MLClassifier) EventClassifier {
	if simpleRule {
		return RuleClassifier{NotificationSize: notificationSize}
	}
	return trained
}

// Appendix A: closed forms for FIAT's error rates from the component
// recalls. P{X|Y} is the probability that Y is classified/validated as X.

// PFPNonManual is the probability FIAT blocks legitimate non-manual traffic
// (Eq. 3): the event is misclassified manual and the absent human activity
// is correctly not validated.
func PFPNonManual(recallNonManual, recallNonHuman float64) float64 {
	return (1 - recallNonManual) * recallNonHuman
}

// PFPManual is the probability FIAT blocks legitimate manual traffic
// (Eq. 4): correctly classified manual but the human is not validated.
func PFPManual(recallManual, recallHuman float64) float64 {
	return recallManual * (1 - recallHuman)
}

// PFN is the probability an attack succeeds (Eq. 5): the manual event is
// misclassified non-manual, or classified manual but a non-human passes the
// humanness check.
func PFN(recallManual, recallNonHuman float64) float64 {
	return 1 - recallManual + recallManual*(1-recallNonHuman)
}
