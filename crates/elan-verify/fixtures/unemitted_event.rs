// expect: PROTOCOL_UNEMITTED_EVENT
//
// Known-bad: the journal taxonomy declares `FenceRejected`, but no
// non-test code ever emits it; the only mention is a name lookup in
// pattern position, which does not count. Operators grepping the
// journal for rejected fences after a split-brain drill see nothing
// and conclude the fence never fired. Every `EventKind` variant must
// be emitted at its instrumentation point, or removed.
//
// This file is a checker fixture, not part of the build.

enum EventKind {
    AdjustStarted,
    FenceRejected,
}

fn begin_adjust(journal: &Journal) {
    journal.emit(EventKind::AdjustStarted);
}

fn kind_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::AdjustStarted => "adjust_started",
        EventKind::FenceRejected => "fence_rejected",
    }
}
