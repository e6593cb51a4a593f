package main

import (
	"sync/atomic"
	"time"

	"vaq"
	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/video"
)

// The wrappers below sit between a workload and the public detector
// interfaces it hands to vaq.NewStream / vaq.IngestVideo. The engines
// only call Detect and Recognize, so wrapping changes no behaviour.

// busyWait spins for d: a fixed CPU cost per invocation that, unlike a
// sleep, is not rounded up by the scheduler.
func busyWait(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// delayedObject adds a fixed busy-wait to every invocation (the
// sensitivity tests' slower detect layer).
type delayedObject struct {
	vaq.ObjectDetector
	delay time.Duration
}

func (d delayedObject) Detect(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	busyWait(d.delay)
	return d.ObjectDetector.Detect(v, labels)
}

type delayedAction struct {
	vaq.ActionRecognizer
	delay time.Duration
}

func (d delayedAction) Recognize(s video.ShotIdx, labels []annot.Label) []detect.ActionScore {
	busyWait(d.delay)
	return d.ActionRecognizer.Recognize(s, labels)
}

// detectMeter accumulates the label invocations (calls × labels, the
// unit the engines count) of the detector calls made through the
// counting wrappers, and with timing on their wall time. Parallel
// ingest calls the wrappers from several goroutines.
type detectMeter struct {
	timing         bool
	objInv, actInv atomic.Int64
	calls          atomic.Int64
	busy           atomic.Int64 // nanoseconds
}

// gpuMS is the modeled detector cost of the counted invocations:
// invocations × Profile.Cost of the simulated Mask R-CNN and I3D.
func (m *detectMeter) gpuMS() float64 {
	return ms(time.Duration(m.objInv.Load())*detect.MaskRCNN.Cost + time.Duration(m.actInv.Load())*detect.I3D.Cost)
}

func (m *detectMeter) invocations() int64 { return m.objInv.Load() + m.actInv.Load() }

type meteredObject struct {
	vaq.ObjectDetector
	m *detectMeter
}

func (t meteredObject) Detect(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	t.m.objInv.Add(int64(len(labels)))
	t.m.calls.Add(1)
	if !t.m.timing {
		return t.ObjectDetector.Detect(v, labels)
	}
	start := time.Now()
	out := t.ObjectDetector.Detect(v, labels)
	t.m.busy.Add(int64(time.Since(start)))
	return out
}

type meteredAction struct {
	vaq.ActionRecognizer
	m *detectMeter
}

func (t meteredAction) Recognize(s video.ShotIdx, labels []annot.Label) []detect.ActionScore {
	t.m.actInv.Add(int64(len(labels)))
	t.m.calls.Add(1)
	if !t.m.timing {
		return t.ActionRecognizer.Recognize(s, labels)
	}
	start := time.Now()
	out := t.ActionRecognizer.Recognize(s, labels)
	t.m.busy.Add(int64(time.Since(start)))
	return out
}

// simModels builds the simulated Mask R-CNN + I3D pair over a scene,
// counted (and timed, when m.timing is set) into m, with the optional
// per-invocation delay of the sensitivity tests below the meter.
func simModels(scene *detect.Scene, m *detectMeter, delay time.Duration) (vaq.ObjectDetector, vaq.ActionRecognizer) {
	var det vaq.ObjectDetector = detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	var rec vaq.ActionRecognizer = detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	if delay > 0 {
		det, rec = delayedObject{det, delay}, delayedAction{rec, delay}
	}
	return meteredObject{det, m}, meteredAction{rec, m}
}
