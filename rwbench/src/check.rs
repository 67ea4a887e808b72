//! Reply validation and the durability snapshot comparison.
//!
//! Every stream writes `value = key + 1` over a prefill of
//! `value = key`, so a correct server can only ever hold `key` or
//! `key + 1` under `key`, or nothing. Each reply is checked against
//! that invariant and against the shape its request demands.

use svc::proto::{Request, Response};

/// Why a reply failed its check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The server shed the request (`Busy`).
    Shed,
    /// A reply of the wrong kind or with an impossible payload.
    Invalid,
}

/// Checks one reply against the request it answers.
pub fn check(req: &Request, resp: &Response) -> Result<(), Reject> {
    let ok = match (req, resp) {
        (_, Response::Busy) => return Err(Reject::Shed),
        (Request::Get { .. }, Response::NotFound) => true,
        (Request::Get { key }, Response::Value(v)) => holds(*key, *v),
        (Request::Put { .. }, Response::Ok) => true,
        (Request::Del { .. }, Response::Ok | Response::NotFound) => true,
        (Request::Scan { start, count }, Response::Pairs(pairs)) => scan_ok(*start, *count, pairs),
        (Request::Stats, Response::Stats(_)) => true,
        (Request::Shutdown, Response::Ok) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(Reject::Invalid)
    }
}

/// Whether `value` is one the generator's invariant allows under `key`.
fn holds(key: u64, value: u64) -> bool {
    value == key || Some(value) == key.checked_add(1)
}

/// SCAN pairs must be strictly ascending, inside `[start, start+count)`,
/// no more than `count` of them, each holding an allowed value.
fn scan_ok(start: u64, count: u32, pairs: &[(u64, u64)]) -> bool {
    let end = start.saturating_add(count as u64);
    pairs.len() <= count as usize
        && pairs.windows(2).all(|w| w[0].0 < w[1].0)
        && pairs
            .iter()
            .all(|&(k, v)| k >= start && k < end && holds(k, v))
}

/// Keys whose presence or value differs between two sorted snapshots.
pub fn snapshot_mismatches(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut bad) = (0, 0, 0u64);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x.0 == y.0 => {
                bad += u64::from(x.1 != y.1);
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x.0 < y.0 => {
                bad += 1;
                i += 1;
            }
            (Some(_), None) => {
                bad += 1;
                i += 1;
            }
            _ => {
                bad += 1;
                j += 1;
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(key: u64) -> Request {
        Request::Get { key }
    }

    fn scan(start: u64, count: u32) -> Request {
        Request::Scan { start, count }
    }

    #[test]
    fn accepts_every_reply_the_invariant_allows() {
        assert_eq!(check(&get(5), &Response::Value(5)), Ok(()));
        assert_eq!(check(&get(5), &Response::Value(6)), Ok(()));
        assert_eq!(check(&get(5), &Response::NotFound), Ok(()));
        let put = Request::Put { key: 3, value: 4 };
        assert_eq!(check(&put, &Response::Ok), Ok(()));
        let del = Request::Del { key: 3 };
        assert_eq!(check(&del, &Response::Ok), Ok(()));
        assert_eq!(check(&del, &Response::NotFound), Ok(()));
        let pairs = vec![(10, 10), (11, 12), (14, 14)];
        assert_eq!(check(&scan(10, 5), &Response::Pairs(pairs)), Ok(()));
        assert_eq!(check(&scan(10, 5), &Response::Pairs(vec![])), Ok(()));
    }

    #[test]
    fn rejects_crafted_bad_get_replies() {
        // A value the generator never wrote.
        assert_eq!(check(&get(5), &Response::Value(7)), Err(Reject::Invalid));
        assert_eq!(check(&get(5), &Response::Value(4)), Err(Reject::Invalid));
        // The right value shape for the wrong request kind.
        assert_eq!(check(&get(5), &Response::Ok), Err(Reject::Invalid));
        assert_eq!(
            check(&get(5), &Response::Pairs(vec![(5, 5)])),
            Err(Reject::Invalid)
        );
        assert_eq!(check(&get(5), &Response::BadRequest), Err(Reject::Invalid));
        assert_eq!(check(&get(5), &Response::Busy), Err(Reject::Shed));
        assert_eq!(
            check(&get(u64::MAX), &Response::Value(0)),
            Err(Reject::Invalid)
        );
    }

    #[test]
    fn rejects_crafted_bad_scan_replies() {
        let bad = |pairs: Vec<(u64, u64)>| check(&scan(10, 5), &Response::Pairs(pairs));
        // Unsorted, duplicated, out of range on either side.
        assert_eq!(bad(vec![(12, 12), (11, 11)]), Err(Reject::Invalid));
        assert_eq!(bad(vec![(11, 11), (11, 11)]), Err(Reject::Invalid));
        assert_eq!(bad(vec![(9, 9)]), Err(Reject::Invalid));
        assert_eq!(bad(vec![(15, 15)]), Err(Reject::Invalid));
        // A value outside {k, k+1}.
        assert_eq!(bad(vec![(12, 14)]), Err(Reject::Invalid));
        // More pairs than asked for.
        let many = scan(0, 2);
        let reply = Response::Pairs(vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(check(&many, &reply), Err(Reject::Invalid));
        // Wrong reply kind.
        assert_eq!(
            check(&scan(10, 5), &Response::Value(10)),
            Err(Reject::Invalid)
        );
    }

    #[test]
    fn rejects_bad_mutation_replies() {
        let put = Request::Put { key: 3, value: 4 };
        assert_eq!(check(&put, &Response::NotFound), Err(Reject::Invalid));
        assert_eq!(check(&put, &Response::ServerFull), Err(Reject::Invalid));
        let del = Request::Del { key: 3 };
        assert_eq!(check(&del, &Response::Value(3)), Err(Reject::Invalid));
    }

    #[test]
    fn snapshot_diff_counts_every_differing_key() {
        let a = vec![(1, 1), (2, 3), (4, 4), (7, 8)];
        assert_eq!(snapshot_mismatches(&a, &a), 0);
        // Lost key 4, changed 7, resurrected 5.
        let b = vec![(1, 1), (2, 3), (5, 5), (7, 7)];
        assert_eq!(snapshot_mismatches(&a, &b), 3);
        assert_eq!(snapshot_mismatches(&a, &[]), 4);
        assert_eq!(snapshot_mismatches(&[], &b), 4);
    }
}
