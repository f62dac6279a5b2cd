//! [`Overlay`] for the Gnutella leaf servent: the LimeWire side of the
//! study. One QUERYHIT carries many responses from one responder; a file is
//! fetched by dialing the advertised address or, failing that (or for a
//! responder behind NAT), by routing a PUSH through the overlay.

use crate::driver::{Overlay, Response, Signal};
use crate::log::HostKey;
use p2pmal_gnutella::servent::{
    DownloadMethod, DownloadRequest, Servent, ServentConfig, ServentEvent, SharedWorld,
};
use p2pmal_gnutella::{Guid, QueryHit};
use p2pmal_netsim::{telemetry_span as span, Ctx, HostAddr, SimDuration};

impl Overlay for Servent {
    type Config = ServentConfig;
    type QueryKey = Guid;
    type Event = ServentEvent;
    type Answer = QueryHit;
    type Request = DownloadRequest;

    fn instrumented(mut config: ServentConfig, world: SharedWorld) -> Self {
        config.collect_events = true;
        config.auto_query = None;
        config.download_timeout = SimDuration::from_secs(1800);
        Servent::new(config, world, Default::default())
    }

    fn search(&mut self, ctx: &mut Ctx<'_>, text: &str) -> Guid {
        Servent::search(self, ctx, text)
    }

    fn begin_download(&mut self, ctx: &mut Ctx<'_>, request: &DownloadRequest) -> u64 {
        Servent::begin_download(self, ctx, request.clone())
    }

    fn drain_events(&mut self) -> Vec<ServentEvent> {
        Servent::drain_events(self)
    }

    fn signal(event: ServentEvent) -> Signal<Self> {
        match event {
            ServentEvent::QueryHit {
                query_guid, hit, ..
            } => Signal::Answer(query_guid, hit),
            ServentEvent::DownloadDone(outcome) => Signal::DownloadDone {
                id: outcome.id,
                result: outcome.result,
            },
            _ => Signal::Other,
        }
    }

    fn response_count(hit: &QueryHit) -> usize {
        hit.results.len()
    }

    fn response(hit: &QueryHit, i: usize) -> Response<'_> {
        let res = &hit.results[i];
        let source = HostAddr::new(hit.ip, hit.port);
        Response {
            name: &res.name,
            size: res.size,
            source,
            host: HostKey::Guid(hit.servent_guid.0),
            needs_push: hit.flags.needs_push() || source.is_private(),
        }
    }

    fn request(hit: &QueryHit, i: usize) -> DownloadRequest {
        let res = &hit.results[i];
        DownloadRequest {
            addr: HostAddr::new(hit.ip, hit.port),
            index: res.index,
            name: res.name.clone(),
            servent_guid: hit.servent_guid,
            method: if Self::response(hit, i).needs_push {
                DownloadMethod::Push
            } else {
                DownloadMethod::Direct
            },
        }
    }

    /// The trace was rooted by `Servent::search` (query GUID) and the
    /// responder's `query_matched` span is derivable from its servent GUID.
    fn provenance(_ctx: &Ctx<'_>, guid: Guid, hit: &QueryHit) -> (u64, u64) {
        let trace = span::trace_from_guid(&guid.0);
        (trace, span::span_match_guid(trace, &hit.servent_guid.0))
    }

    fn request_addr(request: &DownloadRequest) -> HostAddr {
        request.addr
    }

    /// Direct dial failed (or the transfer broke): fall back to PUSH through
    /// the overlay, as LimeWire does.
    fn fall_back(request: &mut DownloadRequest) -> bool {
        let direct = request.method == DownloadMethod::Direct;
        request.method = DownloadMethod::Push;
        direct
    }
}
