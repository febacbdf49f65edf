(* Dynamic offloading decisions under changing network conditions.

     dune exec examples/adaptive_network.exe

   The same compiled binary (164.gzip, the paper's example of a
   communication-bound task) runs over progressively worse links; the
   runtime's dynamic estimator flips from offloading to local
   execution at the point where Equation 1 says the network no longer
   pays — "the dynamic performance estimation allows Native Offloader
   not to suffer from performance slowdown in an unexpected slow
   network environment." *)

open No_prelude.Prelude

let () =
  let entry = Option.get (Registry.by_name "164.gzip") in
  let compiled = Compiler.compile_entry entry in
  let local =
    Local_run.run ~script:entry.Registry.e_eval_script
      ~files:entry.Registry.e_files compiled.Compiler.c_original
  in
  let table =
    Table.create
      ~title:"164.gzip under degrading networks (dynamic decisions)"
      [ "link"; "eff. Mbps"; "decision"; "exec (s)"; "vs local" ]
  in
  Table.add_row table
    [ "(local baseline)"; "-"; "-"; Table.cell_f local.Local_run.lr_total_s;
      "1.00" ];
  List.iter
    (fun link ->
      let config = Session.default_config ~link () in
      let _, r = Experiment.offloaded_run ~config compiled entry in
      Table.add_row table
        [
          link.Link.name;
          Table.cell_f ~digits:1 (Link.effective_bps link /. 1e6);
          (if r.Session.rep_offloads > 0 then "offload" else "stay local");
          Table.cell_f r.Session.rep_total_s;
          Table.cell_f (r.Session.rep_total_s /. local.Local_run.lr_total_s);
        ])
    [ Link.fast_wifi; Link.slow_wifi; Link.congested ];
  Table.print table;
  Fmt.pr
    "@.The crossover is Equation 1: gain = Tm(1 - 1/R) - 2(M/BW)N flips \
     sign as BW falls.@."
