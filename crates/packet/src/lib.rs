//! Packet substrate for the SpeedyBox NFV framework.
//!
//! This crate stands in for the DPDK/BESS/OpenNetVM packet layer used by the
//! SpeedyBox paper (ICDCS 2019). It provides:
//!
//! * Wire-format header types ([`headers::Ethernet`], [`headers::Ipv4`],
//!   [`headers::Tcp`], [`headers::Udp`], [`headers::AuthHeader`]) with
//!   zero-surprise parse/serialize round-trips,
//! * an owned, mutable [`Packet`] with mbuf-style headroom so VPN-style
//!   encapsulation ([`Packet::encap_ah`]) never reallocates on the hot path,
//! * flow identity: [`FiveTuple`] extraction and the paper's 20-bit
//!   [`Fid`] packet metadata (§VI-B of the paper),
//! * internet checksums ([`checksum`]),
//! * a DPDK-mempool-style [`pool::PacketPool`] with per-worker
//!   [`pool::Magazine`] caches so the steady-state data path never touches
//!   the allocator,
//! * a serde-backed [`trace`] format for recording and replaying workloads,
//!   and
//! * classic libpcap read/write ([`pcap`]) for interop with
//!   tcpdump/Wireshark.
//!
//! # Example
//!
//! ```
//! use speedybox_packet::{PacketBuilder, HeaderField};
//!
//! # fn main() -> Result<(), speedybox_packet::PacketError> {
//! let mut pkt = PacketBuilder::tcp()
//!     .src("10.0.0.1:1234".parse().unwrap())
//!     .dst("192.168.1.9:80".parse().unwrap())
//!     .payload(b"GET / HTTP/1.1")
//!     .build();
//! let ft = pkt.five_tuple()?;
//! assert_eq!(ft.dst_port, 80);
//! pkt.set_field(HeaderField::DstPort, 8080u16)?;
//! assert_eq!(pkt.five_tuple()?.dst_port, 8080);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod checksum;
pub mod fid_map;
pub mod field;
pub mod five_tuple;
pub mod headers;
pub mod packet;
pub mod pcap;
pub mod pool;
pub mod trace;

pub use builder::PacketBuilder;
pub use fid_map::{FidBuildHasher, FidHasher, FidMap, FidSet};
pub use field::{FieldValue, HeaderField};
pub use five_tuple::{Fid, FiveTuple, Protocol, FID_BITS, FID_MASK};
pub use packet::{HeaderLayout, Packet, PacketError, TcpFlags};
pub use pool::{Magazine, PacketPool, PoolStats, DEFAULT_POOL_BUFFERS, MAGAZINE_SIZE};

/// Result alias used throughout this crate.
pub type Result<T, E = PacketError> = core::result::Result<T, E>;
