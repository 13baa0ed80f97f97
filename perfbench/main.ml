(* perfbench: the repository benchmark.  See README.md in this directory.

   main.exe --workload batch|stream|serve|certify --seed N
            [--holdout-seed H] [--seconds S] [--trace 0|1] [--commit C]

   Prints a host fingerprint and human-readable tables as lines starting
   with '#', then one JSON result line.  Exits 1 when an output check
   failed and 2 on a usage error or a dev-profile build. *)

open Common

let workloads =
  [ ("batch", Batch.run); ("stream", Streaming.run); ("serve", Serve.run); ("certify", Certify.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload batch|stream|serve|certify --seed N [--holdout-seed H] \
     [--seconds S] [--trace 0|1] [--commit C]";
  exit 2

let cpus_allowed () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> "?"
          | Some l when String.starts_with ~prefix:"Cpus_allowed_list:" l ->
              String.trim (String.sub l 18 (String.length l - 18))
          | Some _ -> find ()
        in
        find ())
  with Sys_error _ -> "?"

let () =
  let workload = ref "" and seed = ref None and holdout = ref None and seconds = ref 10.
  and trace = ref 0 and commit = ref "unknown" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--holdout-seed" :: v :: rest -> holdout := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
        parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  (* The hold-out seed defaults to one derived from the working seed, so
     every run also checks outputs on inputs it never timed. *)
  let holdout_seed = match !holdout with Some h -> h | None -> seed + 1_000_003 in
  if Build_info.profile <> "release" then begin
    Printf.eprintf
      "perfbench: refusing a %S-profile build; build with --profile release (dev's -opaque \
       blocks cross-module inlining and skews every kernel)\n"
      Build_info.profile;
    exit 2
  end;
  Printf.printf
    "# host: cpus=%d cpus_allowed=%s ocaml=%s profile=%s commit=%s\n\
     # run: workload=%s seed=%d holdout_seed=%d seconds=%g trace=%d\n\
     # serve offered rates: light=%g heavy=%g frames/s of BATCH(%d)+ADVANCE\n%!"
    (Domain.recommended_domain_count ()) (cpus_allowed ()) Sys.ocaml_version
    Build_info.profile !commit !workload seed holdout_seed !seconds !trace Serve.light_fps
    Serve.heavy_fps Serve.open_batch;
  let ctx =
    { seed; holdout_seed; seconds = !seconds; traced = !trace = 1;
      tr = Spans.create ~enabled:false () }
  in
  run ctx;
  print_result ctx;
  exit (if !failed = 0 then 0 else 1)
