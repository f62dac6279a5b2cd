//! [`Overlay`] for the OpenFT USER node: the giFT side of the study. Every
//! search result is a packet of its own from the SEARCH node that indexed
//! it — the node hands over the ones a delivery carried as one answer — and
//! names a third-party host; a file is fetched by MD5 from that host's HTTP
//! port, and there is no second transport to fall back to.

use crate::driver::{Overlay, Response, Signal};
use crate::log::HostKey;
use p2pmal_gnutella::servent::SharedWorld;
use p2pmal_hashes::Md5Digest;
use p2pmal_netsim::{telemetry_span as span, Ctx, HostAddr, SimDuration};
use p2pmal_openft::node::{FtConfig, FtEvent, FtNode};
use p2pmal_openft::packet::ResultBatch;

impl Overlay for FtNode {
    type Config = FtConfig;
    type QueryKey = u32;
    type Event = FtEvent;
    /// The answering SEARCH node's routable address and the results of its
    /// answer that arrived together.
    type Answer = (HostAddr, ResultBatch);
    type Request = (HostAddr, Md5Digest);

    fn instrumented(mut config: FtConfig, world: SharedWorld) -> Self {
        config.collect_events = true;
        config.auto_query = None;
        config.download_timeout = SimDuration::from_secs(1800);
        FtNode::new(config, world, Default::default())
    }

    fn search(&mut self, ctx: &mut Ctx<'_>, text: &str) -> u32 {
        FtNode::search(self, ctx, text)
    }

    fn begin_download(&mut self, ctx: &mut Ctx<'_>, &(addr, md5): &(HostAddr, Md5Digest)) -> u64 {
        FtNode::begin_download(self, ctx, addr, md5)
    }

    fn drain_events(&mut self) -> Vec<FtEvent> {
        FtNode::drain_events(self)
    }

    fn signal(event: FtEvent) -> Signal<Self> {
        match event {
            FtEvent::SearchResults { from, results, .. } => {
                Signal::Answer(results.id(), (from, results))
            }
            FtEvent::DownloadDone { id, result, .. } => Signal::DownloadDone { id, result },
            _ => Signal::Other,
        }
    }

    fn response_count((_, results): &(HostAddr, ResultBatch)) -> usize {
        results.len()
    }

    fn response((_, results): &(HostAddr, ResultBatch), i: usize) -> Response<'_> {
        let result = results.get(i);
        Response {
            name: result.filename,
            size: result.size,
            source: HostAddr::new(result.host, result.port),
            host: HostKey::Addr(result.host, result.port),
            needs_push: false,
        }
    }

    fn request((_, results): &(HostAddr, ResultBatch), i: usize) -> (HostAddr, Md5Digest) {
        let result = results.get(i);
        (HostAddr::new(result.host, result.http_port), result.md5)
    }

    /// We rooted the trace in `FtNode::search` from our own routable address
    /// and the search id; the answering SEARCH node derived the same pair,
    /// so its `query_matched` span reconstructs here.
    fn provenance(ctx: &Ctx<'_>, id: u32, (from, _): &(HostAddr, ResultBatch)) -> (u64, u64) {
        let origin = ctx.external_addr();
        let trace = span::trace_from_search(origin.ip, origin.port, id);
        (trace, span::span_match_addr(trace, from.ip, from.port))
    }

    fn request_addr(&(addr, _): &(HostAddr, Md5Digest)) -> HostAddr {
        addr
    }

    fn fall_back(_: &mut (HostAddr, Md5Digest)) -> bool {
        false
    }
}
