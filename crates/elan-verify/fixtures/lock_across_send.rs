// expect: BLOCKING_UNDER_LOCK
//
// Known-bad: a bus send while holding a mutex guard. Under chaos the
// send's retry/ack path can re-enter code that wants the same lock, and
// a slow receiver extends the critical section unboundedly (§V-B). The
// fix is to drop the guard (or end its statement) before sending.
//
// This file is a checker fixture, not part of the build.

use std::sync::Mutex;

struct Notifier {
    members: Mutex<Members>,
}

impl Notifier {
    fn broadcast(&self, to: EndpointId, msg: Msg) {
        let guard = self.members.lock();
        send_envelope(to, stamp(msg, &guard));
    }
}
