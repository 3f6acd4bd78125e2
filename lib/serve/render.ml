(* The exact output formats of the one-shot CLI, factored out so the
   daemon renders replies through the same code. Byte-identity between
   `quantcli check` and `quantcli client check` is a hard protocol
   property (tested end-to-end), so no format string may live in two
   places. Every function returns a newline-terminated line. *)

let query_line ~stats_json name (r : Ta.Checker.result) =
  if stats_json then
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("query", Obs.Json.Str name);
           ("holds", Obs.Json.Bool r.Ta.Checker.holds);
           ("stats", Engine.Stats.to_json_value r.Ta.Checker.stats);
         ])
    ^ "\n"
  else
    Printf.sprintf "%-34s %-9s (%d states)\n" name
      (if r.Ta.Checker.holds then "satisfied" else "VIOLATED")
      r.Ta.Checker.stats.Ta.Checker.visited

let truncated_line name (stats : Ta.Checker.stats) ~reason =
  Printf.sprintf "%-34s %-9s (%d states, %s)\n" name "TRUNCATED"
    stats.Ta.Checker.visited
    (match reason with
     | `Max_states -> "state limit"
     | `Mem_budget -> "mem budget"
     | `Stop -> "stopped")

let smc_fischer_line i (itv : Smc.Estimate.interval) =
  Printf.sprintf "process %d: p=%.4f [%.4f,%.4f] (%d runs)\n" i
    itv.Smc.Estimate.p_hat itv.Smc.Estimate.low itv.Smc.Estimate.high
    itv.Smc.Estimate.trials

let smc_train_line i series =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "train %d:" i);
  List.iter
    (fun (t, p) -> Buffer.add_string b (Printf.sprintf " %.0f:%.2f" t p))
    series;
  Buffer.add_char b '\n';
  Buffer.contents b

let modes_line (r : Modest.Brp.modes_row) =
  Printf.sprintf
    "TA1 %d/%d TA2 %d/%d PA %d PB %d P1 %d P2 %d Dmax %d Emax mu=%.3f sigma=%.3f\n"
    r.Modest.Brp.md_ta1_ok r.Modest.Brp.md_runs r.Modest.Brp.md_ta2_ok
    r.Modest.Brp.md_runs r.Modest.Brp.md_pa_obs r.Modest.Brp.md_pb_obs
    r.Modest.Brp.md_p1_obs r.Modest.Brp.md_p2_obs r.Modest.Brp.md_dmax_obs
    r.Modest.Brp.md_emax_mean r.Modest.Brp.md_emax_std
