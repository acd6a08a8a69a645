package trace

import "demandrace/internal/detector"

// LiveReplay advances a detector and a running Summary one event at a time,
// without knowing the trace's dimensions up front: the detector grows in
// place when an event first names a thread, mutex or semaphore beyond them.
// Replay is a LiveReplay over a whole trace, so streamed and one-shot
// analysis are one code path and end in the same reports and stats. A
// LiveReplay holds shadow state and counters, never events, so its memory
// follows the analyzed state rather than the trace's length.
type LiveReplay struct {
	det *detector.Detector
	sum Summary
}

// NewLiveReplay starts an empty live replay with the given detector options.
func NewLiveReplay(opt detector.Options) *LiveReplay {
	return &LiveReplay{det: detector.New(0, 0, 0, opt)}
}

// Apply feeds one event. Events must arrive in trace order.
func (l *LiveReplay) Apply(e Event) { l.OnEvent(&e) }

// OnEvent is Apply without copying the event, shaped to be the callback of
// StreamDecoder.Each and DecodeEach: a trace decodes straight into the
// replay. It does not retain e.
func (l *LiveReplay) OnEvent(e *Event) {
	ApplyEvent(l.det, e)
	l.sum.Add(e)
}

// Detector returns the live detector.
func (l *LiveReplay) Detector() *detector.Detector { return l.det }

// Races returns the reports found so far. The slice only grows between
// calls.
func (l *LiveReplay) Races() []detector.Report { return l.det.Reports() }

// Summary returns the summary of the events applied so far. Its Program is
// empty; the caller names the trace.
func (l *LiveReplay) Summary() Summary { return l.sum }

// Rebuilds returns how many times an event grew the detector in place
// (Detector.Growths): once per event that names a thread, mutex or
// semaphore beyond the dimensions reached so far. It is the benchmark's
// trace.livereplay_rebuilds; the name dates from when each growth rebuilt
// the detector and replayed every retained event.
func (l *LiveReplay) Rebuilds() int { return l.det.Growths() }
