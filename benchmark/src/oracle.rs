//! The benchmark's shadow of the logical address space: what every page must
//! read back as, whatever the engine did underneath.

/// Expected content of every logical page. Version 0 stands for "unmapped"
/// (never written, or trimmed); the benchmark's write versions start at 1.
pub struct Oracle {
    versions: Vec<u64>,
}

impl Oracle {
    pub fn new(logical_pages: u32) -> Self {
        Oracle {
            versions: vec![0; logical_pages as usize],
        }
    }

    #[inline]
    pub fn write(&mut self, lpn: u32, version: u64) {
        debug_assert!(version > 0);
        self.versions[lpn as usize] = version;
    }

    #[inline]
    pub fn trim(&mut self, lpn: u32) {
        self.versions[lpn as usize] = 0;
    }

    #[inline]
    pub fn expected(&self, lpn: u32) -> Option<u64> {
        match self.versions[lpn as usize] {
            0 => None,
            v => Some(v),
        }
    }

    /// Whether a read of `lpn` returned what was last written (or nothing,
    /// after a trim).
    #[inline]
    pub fn agrees(&self, lpn: u32, got: Option<u64>) -> bool {
        self.expected(lpn) == got
    }

    /// Read every logical page through `read` and count disagreements: a
    /// lost write (older or no version) or a resurrected trim (a trimmed
    /// page reading back mapped).
    pub fn verify_all(&self, mut read: impl FnMut(u32) -> Option<u64>) -> u64 {
        (0..self.versions.len() as u32)
            .filter(|&lpn| !self.agrees(lpn, read(lpn)))
            .count() as u64
    }

    pub fn pages(&self) -> u64 {
        self.versions.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store that does what it is told, except for injected faults.
    struct Store(Vec<Option<u64>>);

    fn run(faulty_write: Option<u32>, faulty_trim: Option<u32>) -> u64 {
        let mut oracle = Oracle::new(64);
        let mut store = Store(vec![None; 64]);
        let mut version = 0;
        for round in 0..3 {
            for lpn in 0..64u32 {
                version += 1;
                oracle.write(lpn, version);
                // The lost write: acknowledged in the last round, never stored.
                if !(round == 2 && faulty_write == Some(lpn)) {
                    store.0[lpn as usize] = Some(version);
                }
            }
        }
        for lpn in (0..64u32).step_by(4) {
            oracle.trim(lpn);
            // The resurrected trim: acknowledged, but the mapping survives.
            if faulty_trim != Some(lpn) {
                store.0[lpn as usize] = None;
            }
        }
        oracle.verify_all(|lpn| store.0[lpn as usize])
    }

    #[test]
    fn a_faithful_store_passes() {
        assert_eq!(run(None, None), 0);
    }

    #[test]
    fn catches_a_lost_write() {
        assert_eq!(run(Some(13), None), 1);
    }

    #[test]
    fn catches_a_resurrected_trim() {
        assert_eq!(run(None, Some(8)), 1);
    }

    #[test]
    fn read_checks_cover_both_directions() {
        let mut o = Oracle::new(4);
        assert!(o.agrees(1, None));
        assert!(!o.agrees(1, Some(7)));
        o.write(1, 7);
        assert!(o.agrees(1, Some(7)));
        assert!(!o.agrees(1, Some(6)));
        assert!(!o.agrees(1, None));
        o.trim(1);
        assert!(o.agrees(1, None));
    }
}
