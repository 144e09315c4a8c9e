//! The `coolair` command-line binary. See [`coolair_cli::usage`].

use std::process::ExitCode;

use coolair_cli::{
    cmd_annual, cmd_campaign_named, cmd_compare, cmd_faults, cmd_locations, cmd_report, cmd_run,
    cmd_serve, cmd_sweep, cmd_train, cmd_validate, flag, parse_flags, parse_flags_with_switches,
    parse_shard, usage, ServeArgs, SweepArgs,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];

    let result = match command.as_str() {
        "locations" => Ok(cmd_locations()),
        "train" => parse_flags(rest).and_then(|f| {
            let location = f.get("location").cloned().unwrap_or_else(|| "newark".into());
            let days = flag::<u64>(&f, "days")?.unwrap_or(45);
            let out = f.get("out").cloned().unwrap_or_else(|| "model.json".into());
            cmd_train(&location, days, &out)
        }),
        "annual" => parse_flags(rest).and_then(|f| {
            let location = f.get("location").cloned().unwrap_or_else(|| "newark".into());
            let system = f.get("system").cloned().unwrap_or_else(|| "allnd".into());
            let trace = f.get("trace").cloned().unwrap_or_else(|| "facebook".into());
            let stride = flag::<u64>(&f, "stride")?.unwrap_or(7);
            cmd_annual(&location, &system, &trace, stride, f.get("model").map(String::as_str))
        }),
        "validate" => parse_flags(rest).and_then(|f| {
            let location = f.get("location").cloned().unwrap_or_else(|| "newark".into());
            cmd_validate(&location, f.get("model").map(String::as_str))
        }),
        "compare" => parse_flags(rest).and_then(|f| {
            let location = f.get("location").cloned().unwrap_or_else(|| "newark".into());
            let stride = flag::<u64>(&f, "stride")?.unwrap_or(14);
            cmd_compare(&location, stride)
        }),
        "sweep" => parse_flags_with_switches(rest, &["resume"]).and_then(|f| {
            let mut a = SweepArgs::default();
            a.locations = flag(&f, "locations")?.unwrap_or(a.locations);
            a.stride = flag(&f, "stride")?.unwrap_or(a.stride);
            a.training_days = flag(&f, "training-days")?.unwrap_or(a.training_days);
            a.threads = flag(&f, "threads")?.unwrap_or(a.threads);
            a.store = f.get("store").cloned();
            a.resume = f.contains_key("resume");
            a.shard = f.get("shard").map(|v| parse_shard(v)).transpose()?;
            a.out = f.get("out").cloned();
            cmd_sweep(&a)
        }),
        "faults" => parse_flags(rest).and_then(|f| {
            let location = f.get("location").cloned().unwrap_or_else(|| "newark".into());
            let seed = flag::<u64>(&f, "seed")?.unwrap_or(4242);
            let severity = flag::<f64>(&f, "severity")?.unwrap_or(1.0);
            let stride = flag::<u64>(&f, "stride")?.unwrap_or(30);
            cmd_faults(&location, seed, severity, stride)
        }),
        "run" => parse_flags(rest).and_then(|f| {
            let location = f.get("location").cloned().unwrap_or_else(|| "newark".into());
            let system = f.get("system").cloned().unwrap_or_else(|| "baseline".into());
            let trace_kind = f.get("trace-kind").cloned().unwrap_or_else(|| "facebook".into());
            let day = flag::<u64>(&f, "day")?.unwrap_or(150);
            let days = flag::<u64>(&f, "days")?.unwrap_or(1);
            cmd_run(&location, &system, &trace_kind, day, days, f.get("trace").map(String::as_str))
        }),
        "serve" => parse_flags(rest).and_then(|f| {
            let mut a = ServeArgs::default();
            a.addr = f.get("addr").cloned().unwrap_or(a.addr);
            a.threads = flag(&f, "threads")?.unwrap_or(a.threads);
            a.queue_depth = flag(&f, "queue-depth")?.unwrap_or(a.queue_depth);
            a.max_connections = flag(&f, "max-connections")?.unwrap_or(a.max_connections);
            a.event_loops = flag(&f, "event-loops")?.unwrap_or(a.event_loops);
            a.store = f.get("store").cloned();
            cmd_serve(&a)
        }),
        "report" => match rest {
            [path] => match cmd_report(path) {
                Ok(report) => Ok(report),
                Err(e) => {
                    // Scripts (and the serve daemon's 404-vs-500 mapping)
                    // rely on missing and corrupt traces exiting differently.
                    eprintln!("error: {}", e.message());
                    return ExitCode::from(e.exit_code());
                }
            },
            _ => Err("usage: coolair report <trace.jsonl>".to_string()),
        },
        "help" | "--help" | "-h" => Ok(usage()),
        // tune, fleet, learn, ...: every registered campaign kind.
        other => cmd_campaign_named(other, rest)
            .unwrap_or_else(|| Err(format!("unknown command '{other}'\n\n{}", usage()))),
    };

    match result {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
