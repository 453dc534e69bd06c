//! The host boundary: the one path an application write, read or discard
//! takes into the engine.
//!
//! [`FtlEngine::submit`] is the only implementation of a host op. It alone
//! validates the LPN, brackets the op in its `Host*` telemetry span, runs
//! the QoS prepay and charges [`TenantStats`](super::TenantStats); the
//! per-kind bodies in the parent module do the FTL work of §4's cache →
//! translation → validity pipeline. [`FtlEngine::write`], [`FtlEngine::read`]
//! and [`FtlEngine::trim`] are `submit` + unwrap, for callers whose LPNs are
//! in range by construction.

use super::{FtlEngine, TenantId};
use flash_sim::{Lpn, SpanKind};
use std::fmt;

/// What a host op does to its logical page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostOpKind {
    /// Store a new version of the page.
    Write {
        /// The payload's version tag, returned by later reads.
        version: u64,
    },
    /// Return the stored version tag.
    Read,
    /// TRIM/discard: declare the page's contents dead.
    Trim,
}

/// One application-level operation on one logical page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostOp {
    /// Write, read or trim.
    pub kind: HostOpKind,
    /// The logical page operated on.
    pub lpn: Lpn,
    /// The tenant to charge. `None` skips per-tenant accounting and QoS
    /// entirely: the op never touches the tenants map.
    pub tenant: Option<TenantId>,
}

/// The result of a served host op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// A read's stored version tag; `None` if the page was never written
    /// or is trimmed, and for writes and trims.
    pub version: Option<u64>,
    /// A trim's result: whether a mapping existed. `false` for writes and
    /// reads.
    pub was_mapped: bool,
    /// Simulated µs the op took — the `SimClock` delta across `submit`,
    /// QoS prepay included.
    pub sim_us: f64,
}

/// Why the engine refused a host op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtlError {
    /// The op's LPN lies outside the exposed logical space. The op was
    /// rejected before anything was charged, counted or recorded.
    LpnOutOfRange(HostOp),
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LpnOutOfRange(op) => {
                let name = match op.kind {
                    HostOpKind::Write { .. } => "write",
                    HostOpKind::Read => "read",
                    HostOpKind::Trim => "trim",
                };
                write!(f, "{name} outside logical space: {:?}", op.lpn)
            }
        }
    }
}

impl std::error::Error for FtlError {}

impl FtlEngine {
    /// Serve one host op. With a tenant, a write first prepays GC if the
    /// QoS budget says so (outside the op's span, inside its latency), and
    /// the op's count, latency and the GC it triggered are charged to the
    /// tenant afterwards.
    pub fn submit(&mut self, op: HostOp) -> Result<Completion, FtlError> {
        let HostOp { kind, lpn, tenant } = op;
        if !self.geometry().contains_lpn(lpn) {
            return Err(FtlError::LpnOutOfRange(op));
        }
        let t0 = self.dev.clock().now_us();
        let gc_before = tenant.map(|t| {
            (
                t,
                self.gc_attrib_us,
                self.counters.gc_operations,
                self.counters.gc_migrations,
            )
        });
        if let (HostOpKind::Write { .. }, Some(t)) = (kind, tenant) {
            if self.qos_should_prepay(t) {
                self.gc_prepay();
            }
        }
        let span_t0 = self.dev.clock().now_us();
        let (span, version, was_mapped) = match kind {
            HostOpKind::Write { version } => {
                self.write_inner(lpn, version);
                (SpanKind::HostWrite, None, false)
            }
            HostOpKind::Read => (SpanKind::HostRead, self.read_inner(lpn), false),
            HostOpKind::Trim => (SpanKind::HostTrim, None, self.trim_inner(lpn)),
        };
        let now = self.dev.clock().now_us();
        self.dev
            .telemetry_mut()
            .record_span(span, lpn.0, span_t0, now);
        let sim_us = now - t0;
        if let Some((tenant, gc0, ops0, mig0)) = gc_before {
            let page_bytes = self.geometry().page_bytes as u64;
            let s = self.tenants.entry(tenant).or_default();
            s.gc_operations += self.counters.gc_operations - ops0;
            s.gc_migrations += self.counters.gc_migrations - mig0;
            s.gc_debt_us += self.gc_attrib_us - gc0;
            match kind {
                HostOpKind::Write { .. } => {
                    s.writes += 1;
                    s.bytes_written += page_bytes;
                    s.write_lat.record(sim_us);
                }
                HostOpKind::Read => {
                    s.reads += 1;
                    s.read_lat.record(sim_us);
                }
                HostOpKind::Trim => s.trims += 1,
            }
        }
        Ok(Completion {
            version,
            was_mapped,
            sim_us,
        })
    }

    /// An untagged `submit` for callers whose LPNs are in range by
    /// construction: panics with the error's message if the op is refused.
    fn submit_untagged(&mut self, kind: HostOpKind, lpn: Lpn) -> Completion {
        let tenant = None;
        self.submit(HostOp { kind, lpn, tenant })
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Application write: store a new version of logical page `lpn`.
    /// Panics if `lpn` is outside the logical space.
    pub fn write(&mut self, lpn: Lpn, version: u64) {
        self.submit_untagged(HostOpKind::Write { version }, lpn);
    }

    /// Application read: returns the stored version tag, or `None` if the
    /// page was never written. Panics if `lpn` is outside the logical space.
    pub fn read(&mut self, lpn: Lpn) -> Option<u64> {
        self.submit_untagged(HostOpKind::Read, lpn).version
    }

    /// Host TRIM/discard: declare logical page `lpn`'s contents dead. The
    /// mapping is durably removed (subsequent reads return `None`, even
    /// across a crash) and the physical copy is reported invalid, so GC can
    /// reclaim it without migration — the workload GeckoFTL's erase markers
    /// handle without any cleaning writes. Returns `true` if a mapping
    /// existed. Panics if `lpn` is outside the logical space.
    pub fn trim(&mut self, lpn: Lpn) -> bool {
        self.submit_untagged(HostOpKind::Trim, lpn).was_mapped
    }
}
