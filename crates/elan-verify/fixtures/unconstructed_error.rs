// expect: PROTOCOL_UNCONSTRUCTED_ERROR
//
// Known-bad: `ElanError::StaleTerm` is declared but no non-test code
// ever constructs it; the failing path returns `Timeout` instead, so a
// caller matching on `StaleTerm` to step down from a deposed AM waits
// for an error that never comes. Construct the variant on its failing
// path, or waive it in verify-allow.toml with a reason.
//
// This file is a checker fixture, not part of the build.

enum ElanError {
    Timeout,
    StaleTerm,
}

fn check_term(current: u64, seen: u64) -> Result<(), ElanError> {
    if seen < current {
        return Err(ElanError::Timeout);
    }
    Ok(())
}

fn is_stale(e: &ElanError) -> bool {
    matches!(e, ElanError::StaleTerm)
}
