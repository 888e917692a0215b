//! The paper's experiments, one module per study.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`latency`] | Fig. 2(a), Fig. 2(b), Fig. 3, §4 summary numbers |
//! | [`throughput`] | Fig. 4, Fig. 5, the §5 disconnected-satellite stat, and the "lax max-flow" baseline ablation |
//! | [`weather`] | Fig. 6, Fig. 7, Fig. 8 |
//! | [`gso_arc`] | Fig. 9 |
//! | [`cross_shell`] | Fig. 10 |
//! | [`fiber`] | Fig. 11 |
//! | [`routing`] | §5 future work: congestion-aware / Suurballe routing ablation |
//! | [`churn`] | extension: path-churn statistics behind Fig. 2(b) |
//! | [`weather_throughput`] | extension: MODCOD-degraded capacities joining §5 and §6 |
//! | [`packet_delay`] | extension: packet-level queueing delay/jitter on BP vs hybrid paths |

pub mod churn;
pub mod cross_shell;
pub mod fiber;
pub mod gso_arc;
pub mod latency;
pub mod packet_delay;
pub mod routing;
pub mod throughput;
pub mod weather;
pub mod weather_throughput;
