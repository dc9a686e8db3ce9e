"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rtt_defaults(self):
        args = build_parser().parse_args(["rtt"])
        assert args.load == pytest.approx(0.4)
        assert args.erlang_order == 9
        assert args.method == "inversion"

    def test_dimension_arguments(self):
        args = build_parser().parse_args(["dimension", "--rtt-bound-ms", "80"])
        assert args.rtt_bound_ms == pytest.approx(80.0)

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8421
        assert args.workers == 1
        assert args.coalesce_ms == pytest.approx(2.0)
        assert args.max_batch == 64
        assert args.max_inflight == 4
        assert args.warm_cache is None

    def test_serve_distributed_flags(self):
        args = build_parser().parse_args(["serve", "--worker-mode"])
        assert args.worker_mode is True
        assert args.remote is None
        args = build_parser().parse_args(
            ["serve", "--remote", "127.0.0.1:9101,127.0.0.1:9102"]
        )
        assert args.remote == "127.0.0.1:9101,127.0.0.1:9102"
        assert args.worker_mode is False

    def test_serve_rejects_remote_plus_worker_mode(self, capsys):
        exit_code = main(
            ["serve", "--remote", "127.0.0.1:9101", "--worker-mode"]
        )
        assert exit_code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_serve_rejects_remote_plus_workers(self, capsys):
        exit_code = main(
            ["serve", "--remote", "127.0.0.1:9101", "--workers", "2"]
        )
        assert exit_code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_fleet_window_defaults(self):
        args = build_parser().parse_args(["fleet", "--requests", "-"])
        assert args.window == 64
        assert args.max_inflight == 4

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "--clients", "10", "--scheduler", "wfq", "--duration", "5"]
        )
        assert args.clients == 10
        assert args.scheduler == "wfq"


class TestCommands:
    def test_rtt_command_prints_quantile(self, capsys):
        exit_code = main(["rtt", "--load", "0.4", "--tick-ms", "40"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "RTT" in captured
        assert "downlink load" in captured

    def test_rtt_command_with_alternative_method(self, capsys):
        exit_code = main(["rtt", "--load", "0.3", "--method", "sum-of-quantiles"])
        assert exit_code == 0
        assert "quantile" in capsys.readouterr().out

    def test_dimension_command(self, capsys):
        exit_code = main(["dimension", "--rtt-bound-ms", "50", "--tick-ms", "40"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "max gamers" in captured

    def test_simulate_command(self, capsys):
        exit_code = main(
            ["simulate", "--clients", "8", "--duration", "3", "--seed", "2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "rtt mean (ms)" in captured

    def test_simulate_with_background_and_wfq(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--clients",
                "8",
                "--duration",
                "3",
                "--scheduler",
                "wfq",
                "--background-kbps",
                "1000",
            ]
        )
        assert exit_code == 0
        assert "downlink load" in capsys.readouterr().out


class TestScenarioFlag:
    def test_rtt_with_preset(self, capsys):
        exit_code = main(["rtt", "--scenario", "counter-strike", "--load", "0.3", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["server_packet_bytes"] == 127.0

    def test_explicit_flag_overrides_preset(self, capsys):
        exit_code = main(
            ["rtt", "--scenario", "counter-strike", "--tick-ms", "40", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["tick_interval_s"] == pytest.approx(0.040)
        assert payload["scenario"]["server_packet_bytes"] == 127.0

    def test_rtt_with_scenario_file(self, capsys, tmp_path):
        from repro.scenarios import Scenario

        path = tmp_path / "custom.json"
        Scenario(erlang_order=20).save(path)
        exit_code = main(["rtt", "--scenario", str(path), "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["erlang_order"] == 20

    def test_unknown_preset_clean_error(self, capsys):
        exit_code = main(["rtt", "--scenario", "no-such-preset"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "error" in err and "paper-dsl" in err

    def test_malformed_scenario_file_clean_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        exit_code = main(["rtt", "--scenario", str(path)])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_out_of_range_parameter_clean_error(self, capsys):
        exit_code = main(["rtt", "--load", "0.001"])
        assert exit_code == 2
        assert "fewer than one gamer" in capsys.readouterr().err

    def test_simulate_with_preset(self, capsys):
        exit_code = main(
            ["simulate", "--scenario", "half-life", "--clients", "6", "--duration", "2",
             "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["tick_interval_s"] == pytest.approx(0.060)


class TestJsonOutput:
    def test_rtt_json(self, capsys):
        exit_code = main(["rtt", "--load", "0.4", "--tick-ms", "40", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["downlink_load"] == pytest.approx(0.4)
        assert payload["rtt_quantile_ms"] == pytest.approx(1e3 * payload["rtt_quantile_s"])
        assert "breakdown" in payload

    def test_dimension_json(self, capsys):
        exit_code = main(["dimension", "--rtt-bound-ms", "50", "--tick-ms", "40", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["rtt_bound_ms"] == pytest.approx(50.0)
        assert payload["result"]["max_gamers"] > 0

    def test_simulate_json(self, capsys):
        exit_code = main(
            ["simulate", "--clients", "8", "--duration", "3", "--seed", "2", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_clients"] == 8
        assert payload["delays"]["rtt"]["count"] > 0

    def test_figure4_json(self, capsys):
        exit_code = main(["figure4", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        series = payload["figure4"]["series_by_tick_ms"]
        assert sorted(series) == ["40", "60"]
        assert len(series["40"]["points"]) == 18

    def test_table1_json(self, capsys):
        exit_code = main(["table1", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "table1" in payload


class TestScenariosCommand:
    def test_lists_presets_in_text(self, capsys):
        exit_code = main(["scenarios", "list"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for name in (
            "paper-dsl",
            "ftth",
            "satellite-leo",
            "dsl-mixed-background",
            "multi-game-dsl",
        ):
            assert name in out
        assert "mix[3]" in out  # the multi-server preset is marked
        assert "cache key" in out

    def test_action_defaults_to_list(self, capsys):
        assert main(["scenarios"]) == 0
        assert "paper-dsl" in capsys.readouterr().out

    def test_json_output_is_authoring_ready(self, capsys):
        exit_code = main(["scenarios", "list", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["satellite-leo"]["propagation_delay_s"] == pytest.approx(0.025)
        # Every record is a valid scenario parameter set.
        from repro.scenarios import Scenario

        for name, parameters in payload.items():
            assert Scenario.from_dict(parameters) is not None, name


class TestFleetCommand:
    @staticmethod
    def _write_requests(path, records):
        path.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n",
            encoding="utf-8",
        )

    def test_serves_jsonl_stream(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        self._write_requests(
            requests,
            [
                {"scenario": "ftth", "load": 0.4, "tag": "r1"},
                {"scenario": "lte", "gamers": 1200, "tag": "r2"},
            ],
        )
        exit_code = main(["fleet", "--requests", str(requests)])
        out = capsys.readouterr().out
        assert exit_code == 0
        answers = [json.loads(line) for line in out.strip().splitlines()]
        assert [a["tag"] for a in answers] == ["r1", "r2"]
        assert all(a["rtt_quantile_ms"] > 0 for a in answers)

    def test_answers_match_rtt_subcommand(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        self._write_requests(requests, [{"scenario": "ftth", "load": 0.4}])
        assert main(["fleet", "--requests", str(requests)]) == 0
        fleet_answer = json.loads(capsys.readouterr().out.strip())
        assert main(["rtt", "--scenario", "ftth", "--load", "0.4", "--json"]) == 0
        rtt_answer = json.loads(capsys.readouterr().out)
        assert fleet_answer["rtt_quantile_s"] == rtt_answer["rtt_quantile_s"]

    def test_output_file_and_stats(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        output = tmp_path / "answers.jsonl"
        self._write_requests(requests, [{"scenario": "cable", "load": 0.3}])
        exit_code = main(
            ["fleet", "--requests", str(requests), "--output", str(output), "--stats"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out == ""
        stats = json.loads(captured.err)
        assert stats["requests"] == 1 and stats["evaluations"] == 1
        answer = json.loads(output.read_text(encoding="utf-8").strip())
        assert answer["downlink_load"] == pytest.approx(0.3)

    def test_warm_cache_round_trip(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        cache = tmp_path / "cache.json"
        self._write_requests(requests, [{"scenario": "paper-dsl", "load": 0.4}])
        args = ["fleet", "--requests", str(requests), "--warm-cache", str(cache),
                "--stats"]
        assert main(args) == 0
        first = capsys.readouterr()
        assert cache.exists()
        assert main(args) == 0
        second = capsys.readouterr()
        cold = json.loads(first.out.strip())
        warm = json.loads(second.out.strip())
        assert warm["cached"] is True
        assert warm["rtt_quantile_s"] == cold["rtt_quantile_s"]
        assert json.loads(second.err)["warm_loaded"] == 1

    def test_simulate_accepts_mix_scenarios(self, capsys):
        # Historically rejected with a one-line error; the mix DES now
        # runs multi-server scenarios end to end.
        exit_code = main(
            ["simulate", "--scenario", "multi-game-dsl", "--clients", "5",
             "--duration", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "downlink load" in captured.out
        assert "Traceback" not in captured.err

    def test_serves_multi_server_mix_requests(self, capsys, tmp_path):
        # The ISSUE 5 acceptance path: a registry mix preset served
        # end-to-end through the CLI with cache persistence.
        from repro.engine import Engine
        from repro.scenarios import get_scenario

        requests = tmp_path / "requests.jsonl"
        cache = tmp_path / "cache.json"
        self._write_requests(
            requests,
            [
                {"scenario": "multi-game-dsl", "load": 0.4, "tag": "mix"},
                {"scenario": "paper-dsl", "load": 0.4, "tag": "single"},
            ],
        )
        args = ["fleet", "--requests", str(requests), "--warm-cache", str(cache)]
        assert main(args) == 0
        cold = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert cold[0]["tag"] == "mix"
        expected = get_scenario("multi-game-dsl").model_at_load(0.4).rtt_quantile(0.99999)
        assert cold[0]["rtt_quantile_s"] == expected
        # The persisted cache round-trips the mix scenario document.
        assert main(args) == 0
        warm = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert all(a["cached"] for a in warm)
        assert warm[0]["rtt_quantile_s"] == cold[0]["rtt_quantile_s"]

    def test_batch_alias(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        self._write_requests(requests, [{"scenario": "ftth", "load": 0.4}])
        assert main(["batch", "--requests", str(requests)]) == 0
        assert json.loads(capsys.readouterr().out.strip())["cached"] is False

    def test_workers_flag_returns_identical_answers(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        self._write_requests(
            requests,
            [
                {"scenario": "ftth", "load": 0.4},
                {"scenario": "cloud-gaming", "load": 0.5},
            ],
        )
        assert main(["fleet", "--requests", str(requests)]) == 0
        serial = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert main(["fleet", "--requests", str(requests), "--workers", "2"]) == 0
        parallel = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [a["rtt_quantile_s"] for a in parallel] == [
            a["rtt_quantile_s"] for a in serial
        ]

    def test_workers_flag_rejects_non_positive(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        self._write_requests(requests, [{"scenario": "ftth", "load": 0.4}])
        exit_code = main(["fleet", "--requests", str(requests), "--workers", "0"])
        assert exit_code == 2
        assert "--workers" in capsys.readouterr().err

    def test_remote_flag_rejects_workers_combination(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        self._write_requests(requests, [{"scenario": "ftth", "load": 0.4}])
        exit_code = main(
            [
                "fleet",
                "--requests",
                str(requests),
                "--remote",
                "127.0.0.1:9101",
                "--workers",
                "2",
            ]
        )
        assert exit_code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_remote_flag_rejects_malformed_hosts(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        self._write_requests(requests, [{"scenario": "ftth", "load": 0.4}])
        exit_code = main(
            ["fleet", "--requests", str(requests), "--remote", "not-a-host"]
        )
        assert exit_code == 2
        assert "host:port" in capsys.readouterr().err

    def test_missing_request_file_clean_error(self, capsys):
        exit_code = main(["fleet", "--requests", "/nonexistent/requests.jsonl"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_request_line_clean_error(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"scenario": "ftth", "laod": 0.4}\n', encoding="utf-8")
        exit_code = main(["fleet", "--requests", str(requests)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "request line 1" in err

    def test_unknown_preset_clean_error(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"scenario": "no-such", "load": 0.4}\n', encoding="utf-8")
        exit_code = main(["fleet", "--requests", str(requests)])
        assert exit_code == 2
        assert "paper-dsl" in capsys.readouterr().err

    def test_invalid_json_line_clean_error_names_the_line(self, capsys, tmp_path):
        # Regression: an unparseable line used to escape as a bare
        # json.JSONDecodeError traceback with no line number.
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"scenario": "ftth", "load": 0.4}\n{"scenario": "ftth", "load":\n',
            encoding="utf-8",
        )
        exit_code = main(["fleet", "--requests", str(requests)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "request line 2" in err
        assert "invalid JSON" in err
        assert "Traceback" not in err

    def test_window_flag_rejects_non_positive(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        self._write_requests(requests, [{"scenario": "ftth", "load": 0.4}])
        exit_code = main(["fleet", "--requests", str(requests), "--window", "0"])
        assert exit_code == 2
        assert "--window" in capsys.readouterr().err

    def test_max_inflight_flag_rejects_non_positive(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        self._write_requests(requests, [{"scenario": "ftth", "load": 0.4}])
        exit_code = main(
            ["fleet", "--requests", str(requests), "--max-inflight", "0"]
        )
        assert exit_code == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_small_windows_match_one_shot_serving(self, capsys, tmp_path):
        records = [
            {"scenario": "ftth", "load": 0.4, "tag": "a"},
            {"scenario": "ftth", "load": 0.35, "tag": "b"},
            {"scenario": "paper-dsl", "load": 0.3, "tag": "c"},
        ]
        requests = tmp_path / "requests.jsonl"
        self._write_requests(requests, records)
        assert main(["fleet", "--requests", str(requests)]) == 0
        one_shot = [json.loads(line) for line in
                    capsys.readouterr().out.strip().splitlines()]
        assert main(
            ["fleet", "--requests", str(requests), "--window", "1",
             "--max-inflight", "2"]
        ) == 0
        windowed = [json.loads(line) for line in
                    capsys.readouterr().out.strip().splitlines()]
        assert [a["tag"] for a in windowed] == ["a", "b", "c"]
        assert [a["rtt_quantile_s"] for a in windowed] == [
            a["rtt_quantile_s"] for a in one_shot
        ]


class TestCompareAccessCommand:
    def test_text_report(self, capsys):
        exit_code = main(["compare-access"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "Access comparison" in out
        for name in ("paper-dsl", "cable", "ftth", "lte"):
            assert name in out

    def test_json_report(self, capsys):
        exit_code = main(["compare-access", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        series = payload["compare-access"]["series_by_preset"]
        assert sorted(series) == [
            "cable",
            "ftth",
            "lte",
            "paper-dsl",
            "satellite-leo",
        ]
        assert len(series["ftth"]["points"]) == 18
        assert payload["compare-access"]["fleet_stats"]["stacked_mgf_calls"] > 0


class TestValidateCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.preset == "all"
        assert args.methods == "all"
        assert args.samples == 4000
        assert args.reps == 50
        assert args.seed == 2006
        assert args.loads is None
        assert args.probability is None

    def test_sweep_passes_on_one_preset(self, capsys):
        exit_code = main(
            ["validate", "--preset", "paper-dsl", "--methods", "inversion",
             "--loads", "0.5", "--samples", "500", "--reps", "8"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "paper-dsl" in out
        assert "[PASS]" in out

    def test_json_payload(self, capsys):
        exit_code = main(
            ["validate", "--preset", "multi-game-dsl", "--methods",
             "inversion,chernoff", "--loads", "0.5", "--samples", "500",
             "--reps", "8", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["cases"]) == 2
        assert all(case["is_mix"] for case in payload["cases"])

    def test_unknown_preset_clean_error(self, capsys):
        exit_code = main(["validate", "--preset", "no-such-game"])
        assert exit_code == 2
        assert "unknown scenario preset" in capsys.readouterr().err

    def test_unknown_method_clean_error(self, capsys):
        exit_code = main(["validate", "--preset", "paper-dsl",
                          "--methods", "magic"])
        assert exit_code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_bad_loads_clean_error(self, capsys):
        exit_code = main(["validate", "--preset", "paper-dsl",
                          "--loads", "half"])
        assert exit_code == 2
        assert "bad --loads" in capsys.readouterr().err


class TestSimulateMixCommand:
    def test_mix_preset_simulates(self, capsys):
        exit_code = main(
            ["simulate", "--scenario", "multi-game-dsl", "--clients", "20",
             "--duration", "2", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "rtt mean (ms)" in out
        assert "downlink load" in out

    def test_mix_preset_json(self, capsys):
        exit_code = main(
            ["simulate", "--scenario", "multi-game-dsl", "--clients", "20",
             "--duration", "2", "--seed", "3", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["type"] == "mix"
        assert "rtt" in payload["delays"]
