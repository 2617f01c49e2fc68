// expect: VIRTUAL_TIME_UNSAFE
//
// Known-bad: a raw machine-clock read outside time.rs. Under the
// virtual clock the journal timestamps must be a pure function of the
// seed; this read injects wall-clock jitter, so two runs of the same
// seed hash differently and the seedsweep CI job goes red. Route the
// read through TimeSource::now() instead.
//
// This file is a checker fixture, not part of the build.

fn stamp_event(journal: &Journal) {
    let at = Instant::now();
    journal.record(at);
}
