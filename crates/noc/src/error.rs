//! Error types for network configuration validation.

use std::error::Error;
use std::fmt;

/// Reason a [`crate::config::NetworkConfig`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The per-router configuration list does not match the topology's
    /// router count.
    RouterCountMismatch {
        /// Routers in the topology.
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
    /// A router was configured with zero virtual channels.
    ZeroVcs {
        /// The offending router index.
        router: usize,
    },
    /// A router was configured with a zero-depth buffer.
    ZeroBufferDepth {
        /// The offending router index.
        router: usize,
    },
    /// The global flit width is zero.
    ZeroFlitWidth,
    /// A link is narrower than the flit width, or not a whole multiple of it.
    BadLinkWidth {
        /// The offending link index.
        link: usize,
        /// Its configured width in bits.
        width: u32,
        /// The global flit width in bits.
        flit_width: u32,
    },
    /// Torus routing needs at least 2 VCs per port for dateline classes.
    TorusNeedsTwoVcs {
        /// The offending router index.
        router: usize,
    },
    /// Table routing is enabled but a router has fewer than 2 VCs
    /// (one escape VC must remain available).
    TableNeedsEscapeVc {
        /// The offending router index.
        router: usize,
    },
    /// The configured frequency is not positive and finite.
    BadFrequency {
        /// The rejected value in GHz.
        ghz: f64,
    },
    /// A fault-plan bit-error probability is outside `[0, 1]` (or NaN).
    BadErrorProbability {
        /// The rejected probability.
        p: f64,
    },
    /// The fault-plan retry limit is zero (link-level retransmission needs
    /// at least one attempt to be meaningful).
    ZeroRetryLimit,
    /// The fault-plan retry timeout is shorter than the link round trip
    /// (flit out at +2, ack back at +1), so every transmission would time
    /// out before its ack could arrive.
    RetryTimeoutTooShort {
        /// The rejected timeout in cycles.
        timeout: u64,
        /// The minimum admissible timeout.
        min: u64,
    },
    /// The end-to-end recovery retention depth is zero, so no source could
    /// ever inject a packet.
    ZeroRetentionDepth,
    /// A hard fault is scheduled at or beyond the simulation horizon, so it
    /// could never fire.
    FaultBeyondHorizon {
        /// The scheduled fault cycle.
        cycle: u64,
        /// The simulation horizon (`max_cycles`).
        horizon: u64,
    },
    /// A fault-plan link id does not exist in the topology.
    FaultLinkOutOfRange {
        /// The rejected link index.
        link: usize,
        /// Links in the topology.
        links: usize,
    },
    /// A fault-plan router id does not exist in the topology.
    FaultRouterOutOfRange {
        /// The rejected router index.
        router: usize,
        /// Routers in the topology.
        routers: usize,
    },
    /// A router has more ports than switch allocation's per-output input
    /// port mask holds ([`crate::config::MAX_ROUTER_PORTS`]).
    TooManyPorts {
        /// The offending router index.
        router: usize,
        /// Its port count.
        ports: usize,
        /// The largest supported port count.
        max: usize,
    },
    /// A router has more input VCs (ports × VCs per port) than VC
    /// allocation's per-output requester mask holds
    /// ([`crate::config::MAX_ROUTER_VCS`]).
    TooManyInputVcs {
        /// The offending router index.
        router: usize,
        /// Its input VC count.
        vcs: usize,
        /// The largest supported input VC count.
        max: usize,
    },
    /// A [`crate::config::NetworkConfigBuilder::router`] override names a
    /// router the topology does not have.
    RouterIndexOutOfRange {
        /// The rejected router index.
        router: usize,
        /// Routers in the topology.
        routers: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::RouterCountMismatch { expected, got } => write!(
                f,
                "router config count {got} does not match topology router count {expected}"
            ),
            ConfigError::ZeroVcs { router } => {
                write!(f, "router {router} configured with zero virtual channels")
            }
            ConfigError::ZeroBufferDepth { router } => {
                write!(f, "router {router} configured with zero buffer depth")
            }
            ConfigError::ZeroFlitWidth => write!(f, "flit width must be non-zero"),
            ConfigError::BadLinkWidth {
                link,
                width,
                flit_width,
            } => write!(
                f,
                "link {link} width {width}b is not a positive multiple of the flit width {flit_width}b"
            ),
            ConfigError::TorusNeedsTwoVcs { router } => write!(
                f,
                "torus dateline routing requires at least 2 VCs per port (router {router})"
            ),
            ConfigError::TableNeedsEscapeVc { router } => write!(
                f,
                "table routing requires at least 2 VCs per port for the escape class (router {router})"
            ),
            ConfigError::BadFrequency { ghz } => {
                write!(f, "network frequency {ghz} GHz is not positive and finite")
            }
            ConfigError::BadErrorProbability { p } => {
                write!(f, "bit-error probability {p} is not within [0, 1]")
            }
            ConfigError::ZeroRetryLimit => {
                write!(f, "retry limit must be at least 1")
            }
            ConfigError::RetryTimeoutTooShort { timeout, min } => write!(
                f,
                "retry timeout {timeout} cycles is shorter than the link round trip ({min} cycles)"
            ),
            ConfigError::ZeroRetentionDepth => {
                write!(f, "recovery retention depth must be at least 1")
            }
            ConfigError::FaultBeyondHorizon { cycle, horizon } => write!(
                f,
                "hard fault at cycle {cycle} lies at or beyond the simulation horizon {horizon}"
            ),
            ConfigError::FaultLinkOutOfRange { link, links } => write!(
                f,
                "fault plan names link {link} but the topology has {links} links"
            ),
            ConfigError::FaultRouterOutOfRange { router, routers } => write!(
                f,
                "fault plan names router {router} but the topology has {routers} routers"
            ),
            ConfigError::TooManyPorts { router, ports, max } => write!(
                f,
                "router {router} has {ports} ports; the allocators support at most {max}"
            ),
            ConfigError::TooManyInputVcs { router, vcs, max } => write!(
                f,
                "router {router} has {vcs} input VCs (ports x VCs per port); the allocators support at most {max}"
            ),
            ConfigError::RouterIndexOutOfRange { router, routers } => write!(
                f,
                "builder overrides router {router} but the topology has {routers} routers"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_reason() {
        let e = ConfigError::ZeroVcs { router: 3 };
        assert!(e.to_string().contains("router 3"));
        let e = ConfigError::BadLinkWidth {
            link: 1,
            width: 100,
            flit_width: 192,
        };
        assert!(e.to_string().contains("100b"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_err(ConfigError::ZeroFlitWidth);
    }
}
