//! The acknowledged-state oracle: what every logical page may read back as,
//! after any op and any crash (paper §4.3 and Appendix C; docs/DESIGN.md
//! invariants 2–4).
//!
//! One rule, checked in [`Oracle::verify`] over the whole logical space:
//!
//! - a never-written or acknowledged-trimmed LPN reads unmapped (nothing is
//!   invented and no trim is resurrected);
//! - an acknowledged write reads back its exact version (nothing committed
//!   is dropped or rolled back);
//! - the one op a crash may have left half done ([`Oracle::in_flight`]) may
//!   read its old value or its new one: a write's old or new version, a
//!   trim's old version or unmapped.

use flash_sim::Lpn;

/// The acknowledged content of every logical page, plus the one op in
/// flight.
#[derive(Debug)]
pub struct Oracle {
    /// The last acknowledged version of each LPN; `None` when it was never
    /// written or its last acknowledged op was a trim.
    acked: Vec<Option<u64>>,
    /// The op a crash may have left half done: its LPN and the value it
    /// would leave (a write's version, `None` for a trim).
    in_flight: Option<(Lpn, Option<u64>)>,
}

impl Oracle {
    /// An oracle for `logical_pages` LPNs, none written yet.
    pub fn new(logical_pages: u64) -> Self {
        Oracle {
            acked: vec![None; logical_pages as usize],
            in_flight: None,
        }
    }

    /// The host saw the write of `version` to `lpn` complete. Ends the op
    /// in flight.
    pub fn ack_write(&mut self, lpn: Lpn, version: u64) {
        self.acked[lpn.0 as usize] = Some(version);
        self.in_flight = None;
    }

    /// The host saw the trim of `lpn` complete. Ends the op in flight.
    pub fn ack_trim(&mut self, lpn: Lpn) {
        self.acked[lpn.0 as usize] = None;
        self.in_flight = None;
    }

    /// An op on `lpn` is issued and not acknowledged yet: a crash may leave
    /// `lpn` at its acknowledged value or at `new` (the version a write
    /// stores, `None` for a trim) until the next `ack_write` / `ack_trim`.
    pub fn in_flight(&mut self, lpn: Lpn, new: Option<u64>) {
        self.in_flight = Some((lpn, new));
    }

    /// What a read of `lpn` returns when no crash interrupts anything: its
    /// last acknowledged version, or `None`.
    pub fn expected(&self, lpn: Lpn) -> Option<u64> {
        self.acked[lpn.0 as usize]
    }

    /// Read every LPN once, in ascending order, through `read`, and return
    /// the first one whose value the rule above does not allow, naming the
    /// LPN, the allowed set and the value read.
    pub fn verify(&self, mut read: impl FnMut(Lpn) -> Option<u64>) -> Result<(), String> {
        for (l, &acked) in self.acked.iter().enumerate() {
            let lpn = Lpn(l as u32);
            let got = read(lpn);
            // The value the op in flight would leave, if it is on this LPN.
            let new = self
                .in_flight
                .filter(|&(at, _)| at == lpn)
                .map(|(_, new)| new);
            if got != acked && Some(got) != new {
                return Err(match new {
                    Some(new) => {
                        format!("L{l} (in flight): read {got:?}, allowed {{{acked:?}, {new:?}}}")
                    }
                    None => format!("L{l}: read {got:?}, allowed {{{acked:?}}}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An oracle over 8 LPNs: L1 written twice (7 then 9), L2 written then
    /// trimmed, the rest never written.
    fn oracle() -> Oracle {
        let mut o = Oracle::new(8);
        o.ack_write(Lpn(1), 7);
        o.ack_write(Lpn(1), 9);
        o.ack_write(Lpn(2), 5);
        o.ack_trim(Lpn(2));
        o
    }

    /// `o`'s verdict on a store that holds what [`oracle`] acknowledged,
    /// except `value` at `lpn`.
    fn verdict(o: &Oracle, lpn: u32, value: Option<u64>) -> Result<(), String> {
        o.verify(|l| match l.0 {
            l if l == lpn => value,
            1 => Some(9),
            _ => None,
        })
    }

    #[test]
    fn reads_every_lpn_once_in_ascending_order() {
        let mut seen = Vec::new();
        let res = oracle().verify(|l| {
            seen.push(l.0);
            (l.0 == 1).then_some(9)
        });
        assert_eq!((res, seen), (Ok(()), (0..8).collect()));
    }

    #[test]
    fn rejects_each_violation_class_naming_lpn_allowed_set_and_value() {
        let o = oracle();
        assert_eq!(verdict(&o, 1, Some(9)), Ok(()), "a faithful store");
        for (lpn, value, class) in [
            (1, None, "L1: read None, allowed {Some(9)}"), // a lost write
            (1, Some(7), "L1: read Some(7), allowed {Some(9)}"), // a stale version
            (2, Some(5), "L2: read Some(5), allowed {None}"), // a resurrected trim
            (6, Some(1), "L6: read Some(1), allowed {None}"), // never written
        ] {
            assert_eq!(verdict(&o, lpn, value), Err(class.into()));
        }
        let mut zero = Oracle::new(1);
        zero.ack_write(Lpn(0), 0);
        assert_eq!(
            zero.verify(|_| None),
            Err("L0: read None, allowed {Some(0)}".into())
        );
    }

    /// An in-flight write may read old or new, an in-flight trim old or
    /// unmapped; any other value, or any other LPN off its acknowledged
    /// value, fails. An ack ends the op in flight.
    #[test]
    fn only_the_in_flight_lpn_reads_old_or_new() {
        let mut o = oracle();
        for new in [Some(11), None] {
            o.in_flight(Lpn(1), new);
            assert_eq!(verdict(&o, 1, Some(9)), Ok(()), "old");
            assert_eq!(verdict(&o, 1, new), Ok(()), "new");
            let allowed = format!("allowed {{Some(9), {new:?}}}");
            assert_eq!(
                verdict(&o, 1, Some(7)),
                Err(format!("L1 (in flight): read Some(7), {allowed}"))
            );
            assert!(verdict(&o, 6, Some(11)).is_err(), "another LPN");
        }
        o.in_flight(Lpn(1), Some(11));
        assert!(verdict(&o, 1, None).is_err(), "a write leaves no unmapped");
        o.ack_write(Lpn(1), 11);
        assert_eq!(o.expected(Lpn(1)), Some(11));
        assert!(
            verdict(&o, 1, Some(9)).is_err(),
            "acked: the old version is stale"
        );
    }
}
