//! A hostile frame cannot make its decoder ask for much more memory than
//! the frame itself: a count read from the body is checked against the
//! bytes left, and at most a small number of elements is reserved up front
//! however large the count — the rest only as elements actually decode.
//!
//! One test function on purpose: the allocation counter is process-wide,
//! and a second test on another harness thread would be counted too.

mod counting_alloc;

use counting_alloc::bytes_allocated;
use ingot_common::wire::{Request, Response};

const BODY: usize = 1 << 20;
const CLAIMED: u32 = 1_000_000;

/// `head`, then 0xff to 1 MiB: every count in `head` fits the body, but the
/// first element behind it fails to decode (0xff is no value tag, and as a
/// count it claims more than the frame holds).
fn hostile(head: &[u8]) -> Vec<u8> {
    let mut body = head.to_vec();
    body.resize(BODY, 0xff);
    body
}

#[test]
fn decoding_a_frame_that_claims_a_million_elements_allocates_about_the_frame() {
    let claimed = CLAIMED.to_le_bytes();
    // `ExecutePrepared { id, params }` claiming 1 M parameters.
    let mut params = 7u64.to_le_bytes().to_vec();
    params.extend_from_slice(&claimed);
    let params = hostile(&params);
    // `Rows`: no columns, 1 M rows.
    let mut rows = 0u32.to_le_bytes().to_vec();
    rows.extend_from_slice(&claimed);
    let rows = hostile(&rows);
    // `Rows`: 1 M columns.
    let columns = hostile(&claimed);

    for (what, op, body, request) in [
        ("params", 0x03, &params, true),
        ("rows", 0x83, &rows, false),
        ("columns", 0x83, &columns, false),
    ] {
        let before = bytes_allocated();
        let failed = if request {
            Request::decode(op, body).is_err()
        } else {
            Response::decode(op, body).is_err()
        };
        let asked = bytes_allocated() - before;
        assert!(failed, "{what}: the hostile body must not decode");
        assert!(
            asked <= 2 * BODY as u64,
            "{what}: decoding a {BODY}-byte body claiming {CLAIMED} elements \
             allocated {asked} bytes"
        );
    }
}
