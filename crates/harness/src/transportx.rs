//! Transport pipeline (compound batching, piggybacked post-op
//! attributes, switched full-duplex wire) vs the paper transport.
//!
//! Two workloads:
//!
//! * the single-client Andrew benchmark on plain NFS, where piggybacked
//!   attributes elide the open-time `getattr` probes the paper's
//!   Table 5-2 complains about, and the Nagle batcher coalesces the
//!   write-behind bursts;
//! * an 8-client data-transfer scaling run on SNFS (every client reads
//!   a shared 1 MB server file with an 8-block read-ahead window), where
//!   the shared 10 Mbit bus serializes every message unless the switched
//!   wire splits it into per-host lanes and the read-ahead burst batches
//!   into compounds.
//!
//! Both sides run the pipelined server I/O and write-behind pool so the
//! transport itself is the bottleneck under comparison; only
//! `TransportParams` varies.

use spritely_core::WriteBehindParams;
use spritely_metrics::TextTable;
use spritely_rpcnet::TransportParams;
use spritely_sim::SimDuration;
use spritely_vfs::OpenFlags;

use crate::andrew::{run_andrew_with, AndrewRun};
use crate::report;
use crate::testbed::{Protocol, ServerIoParams, Testbed, TestbedParams};

fn andrew_params(t: TransportParams) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Nfs,
        tmp_remote: true,
        server_io: ServerIoParams::pipelined(),
        transport: t,
        ..TestbedParams::default()
    }
}

fn scaling_params(t: TransportParams, trace: bool) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Snfs,
        server_io: ServerIoParams::pipelined(),
        write_behind: WriteBehindParams::pipelined(),
        read_ahead_window: 8,
        transport: t,
        trace,
        ..TestbedParams::default()
    }
}

/// One data-scaling run: the testbed after the run, plus the
/// measured-phase makespan and wire message count.
pub struct DataScalingRun {
    /// The testbed, for end-of-run snapshots and traces.
    pub tb: Testbed,
    /// Measured-phase makespan, in simulated seconds.
    pub makespan_s: f64,
    /// Wire messages in the measured phase.
    pub messages: u64,
}

/// One data-scaling run: client 0 seeds a shared 256-block file
/// (untimed, like the scaling runner's setup phase), every client
/// cold-boots, then all `n` clients read the whole file concurrently.
pub fn run_data_scaling(t: TransportParams, n: usize, trace: bool) -> DataScalingRun {
    let tb = Testbed::build_with_clients(scaling_params(t, trace), n);
    {
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/shared", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[3u8; 256 * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
            // Drain the delayed write-back so the server holds the data.
            sim.sleep(SimDuration::from_secs(65)).await;
        });
        tb.sim.run_until(h);
        tb.cold_boot_clients();
    }
    let t0 = tb.sim.now();
    let m0 = tb.net.messages();
    let mut handles = Vec::new();
    for host in &tb.clients {
        let p = host.proc(&tb.sim);
        handles.push(tb.sim.spawn(async move {
            let fd = p.open("/remote/shared", OpenFlags::read()).await.unwrap();
            while !p.read(fd, 4096).await.unwrap().is_empty() {}
            p.close(fd).await.unwrap();
        }));
    }
    for h in handles {
        tb.sim.run_until(h);
    }
    let makespan_s = tb.sim.now().duration_since(t0).as_secs_f64();
    let messages = tb.net.messages() - m0;
    DataScalingRun {
        tb,
        makespan_s,
        messages,
    }
}

/// Both workloads on both transports.
pub struct TransportComparison {
    /// Andrew on NFS over the paper transport.
    pub andrew_paper: AndrewRun,
    /// Andrew on NFS over the pipelined transport.
    pub andrew_pipe: AndrewRun,
    /// 8-client read on SNFS over the paper transport.
    pub scale8_paper: DataScalingRun,
    /// 8-client read on SNFS over the pipelined transport.
    pub scale8_pipe: DataScalingRun,
}

fn reduction(paper: u64, pipe: u64) -> f64 {
    100.0 * (1.0 - pipe as f64 / paper as f64)
}

impl TransportComparison {
    /// Andrew makespan gain of the pipelined transport.
    pub fn andrew_speedup(&self) -> f64 {
        self.andrew_paper.times.total().as_secs_f64() / self.andrew_pipe.times.total().as_secs_f64()
    }

    /// 8-client makespan gain of the pipelined transport.
    pub fn scaling_speedup(&self) -> f64 {
        self.scale8_paper.makespan_s / self.scale8_pipe.makespan_s
    }

    /// Wire messages of both workloads together, paper then pipelined.
    fn total_messages(&self) -> (u64, u64) {
        (
            self.andrew_paper.stats.transport.net_messages + self.scale8_paper.messages,
            self.andrew_pipe.stats.transport.net_messages + self.scale8_pipe.messages,
        )
    }

    /// Percent fewer wire messages on the pipelined transport.
    pub fn total_reduction(&self) -> f64 {
        let (paper, pipe) = self.total_messages();
        reduction(paper, pipe)
    }

    /// The comparison table, totals and whole-run transport counters.
    pub fn report(&self) -> String {
        let at_paper = &self.andrew_paper.stats.transport;
        let at_pipe = &self.andrew_pipe.stats.transport;
        let st_paper = self.scale8_paper.tb.stats_snapshot().transport;
        let st_pipe = self.scale8_pipe.tb.stats_snapshot().transport;
        let (s_paper, s_pipe) = (&self.scale8_paper, &self.scale8_pipe);
        let mut t = TextTable::new(vec![
            "Workload",
            "paper msgs",
            "pipe msgs",
            "reduction",
            "paper s",
            "pipe s",
            "speedup",
        ]);
        t.row(vec![
            "Andrew/NFS".to_string(),
            at_paper.net_messages.to_string(),
            at_pipe.net_messages.to_string(),
            format!(
                "{:.0}%",
                reduction(at_paper.net_messages, at_pipe.net_messages)
            ),
            format!("{:.0}", self.andrew_paper.times.total().as_secs_f64()),
            format!("{:.0}", self.andrew_pipe.times.total().as_secs_f64()),
            format!("{:.2}x", self.andrew_speedup()),
        ]);
        t.row(vec![
            "8-client read/SNFS".to_string(),
            s_paper.messages.to_string(),
            s_pipe.messages.to_string(),
            format!("{:.0}%", reduction(s_paper.messages, s_pipe.messages)),
            format!("{:.1}", s_paper.makespan_s),
            format!("{:.1}", s_pipe.makespan_s),
            format!("{:.2}x", self.scaling_speedup()),
        ]);
        let (total_paper, total_pipe) = self.total_messages();
        format!(
            "{}\ntotal messages: {total_paper} -> {total_pipe} ({:.0}% reduction)\n\
             transport observability (whole run, setup included):\n{}",
            t.render(),
            self.total_reduction(),
            report::transport_table(&[
                ("andrew/paper", at_paper),
                ("andrew/pipe", at_pipe),
                ("scale8/paper", &st_paper),
                ("scale8/pipe", &st_pipe),
            ])
        )
    }
}

/// Runs both workloads on the paper and the pipelined transport
/// (`seed` drives the Andrew runs).
pub fn run_transport_comparison(seed: u64) -> TransportComparison {
    TransportComparison {
        andrew_paper: run_andrew_with(andrew_params(TransportParams::paper()), seed),
        andrew_pipe: run_andrew_with(andrew_params(TransportParams::pipelined()), seed),
        scale8_paper: run_data_scaling(TransportParams::paper(), 8, false),
        scale8_pipe: run_data_scaling(TransportParams::pipelined(), 8, false),
    }
}
