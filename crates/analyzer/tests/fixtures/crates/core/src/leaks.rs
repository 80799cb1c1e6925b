//! redaction true positives: raw payload reaching a log sink without a
//! redaction/summary step — once via a tainted binding, once via a direct
//! source expression, once through a derived intra-crate carrier, and once
//! through a carrier whose only source is a cancellable `_ctl` decoder.

fn log_payload(text: &str) {
    let exchanges = har_to_exchanges_salvage(text, &mut SalvageLog::new());
    diffaudit_obs::warn(
        "suspicious payload",
        &[diffaudit_obs::field("body", format!("{:?}", exchanges))],
    );
}

fn dump_request(req: &HttpRequest) {
    eprintln!("request body: {:?}", req.body);
}

fn reload(text: &str) -> Vec<Exchange> {
    har_to_exchanges_salvage(text, &mut SalvageLog::new()).unwrap_or_default()
}

fn trace_reloaded(text: &str) {
    let batch = reload(text);
    diffaudit_obs::debug("batch", &[diffaudit_obs::field("first", format!("{:?}", batch))]);
}

fn decode_before_deadline(bytes: &[u8], log: &mut SalvageLog, ctl: &Ctl) -> Vec<Exchange> {
    decode_auto_salvage_ctl(bytes, &KeyLog::new(), log, ctl)
        .map(|trace| trace.exchanges)
        .unwrap_or_default()
}

fn trace_deadline_decode(bytes: &[u8], log: &mut SalvageLog, ctl: &Ctl) {
    let staged = decode_before_deadline(bytes, log, ctl);
    diffaudit_obs::debug("staged", &[diffaudit_obs::field("first", format!("{:?}", staged))]);
}
