#include "asterix/gleambook.h"

#include "adm/temporal.h"
#include "common/io.h"

namespace asterix::gleambook {

using adm::Value;

Generator::Generator(GeneratorOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  auto epoch = adm::temporal::ParseDatetime(options_.epoch_start);
  epoch_ms_ = epoch.ok() ? epoch.value() : 0;
  for (int i = 0; i < options_.vocabulary; i++) {
    vocabulary_.push_back("word" + std::to_string(i));
  }
  orgs_ = {"Couchbase", "UC Irvine", "UC Riverside", "Oracle Labs",
           "Yahoo Research", "BEA Systems", "Gleambook", "Apache"};
}

std::string Generator::AliasOf(int64_t user_id) const {
  return "user" + std::to_string(user_id);
}

adm::Value Generator::MakeUser(int64_t id) {
  // Skewed friend counts: most users few friends, some many.
  int64_t nfriends = static_cast<int64_t>(
      rng_.Skewed(static_cast<uint64_t>(options_.max_friends)));
  std::vector<Value> friends;
  for (int64_t f = 0; f < nfriends; f++) {
    friends.push_back(Value::Int(static_cast<int64_t>(
        rng_.Uniform(static_cast<uint64_t>(options_.num_users)))));
  }
  int64_t since =
      epoch_ms_ - static_cast<int64_t>(rng_.Uniform(3650)) * 86400000;
  std::vector<Value> jobs;
  int njobs = static_cast<int>(rng_.Uniform(3));
  for (int j = 0; j < njobs; j++) {
    int64_t start_day = since / 86400000 + static_cast<int64_t>(rng_.Uniform(1000));
    adm::ObjectBuilder job;
    job.Add("organizationName", Value::String(rng_.Pick(orgs_)));
    job.Add("startDate", Value::Date(start_day));
    if (rng_.Uniform(2) == 0) {
      job.Add("endDate",
              Value::Date(start_day + static_cast<int64_t>(rng_.Uniform(900))));
    }
    jobs.push_back(job.Build());
  }
  return adm::ObjectBuilder()
      .Add("id", Value::Int(id))
      .Add("alias", Value::String(AliasOf(id)))
      .Add("name", Value::String("Name" + std::to_string(id)))
      .Add("userSince", Value::Datetime(since))
      .Add("friendIds", Value::Multiset(std::move(friends)))
      .Add("employment", Value::Array(std::move(jobs)))
      .Build();
}

adm::Value Generator::MakeMessage(int64_t message_id) {
  // Popular (low-id-skewed) authors write more messages.
  int64_t author = static_cast<int64_t>(
      rng_.Skewed(static_cast<uint64_t>(options_.num_users)));
  std::string text;
  int words = 3 + static_cast<int>(rng_.Uniform(12));
  for (int w = 0; w < words; w++) {
    if (w) text += " ";
    text += rng_.Pick(vocabulary_);
  }
  adm::ObjectBuilder msg;
  msg.Add("messageId", Value::Int(message_id));
  msg.Add("authorId", Value::Int(author));
  if (rng_.Uniform(3) == 0 && message_id > 0) {
    msg.Add("inResponseTo",
            Value::Int(static_cast<int64_t>(
                rng_.Uniform(static_cast<uint64_t>(message_id)))));
  }
  msg.Add("senderLocation",
          Value::MakePoint(rng_.NextDouble() * options_.world_size,
                           rng_.NextDouble() * options_.world_size));
  msg.Add("message", Value::String(std::move(text)));
  return msg.Build();
}

std::string Generator::MakeAccessLogLine(int64_t seq) {
  int64_t user = static_cast<int64_t>(
      rng_.Skewed(static_cast<uint64_t>(options_.num_users)));
  int64_t ts = epoch_ms_ + static_cast<int64_t>(rng_.Uniform(
                               static_cast<uint64_t>(options_.window_days) *
                               86400000ull));
  std::string line;
  line += "10." + std::to_string(rng_.Uniform(256)) + "." +
          std::to_string(rng_.Uniform(256)) + "." +
          std::to_string(rng_.Uniform(256));
  line += "|";
  // Second-resolution ISO timestamp (the Fig. 3(b) log format).
  line += adm::temporal::FormatDatetime(ts / 1000 * 1000);
  line.erase(line.size() - 5);  // strip ".000Z" -> parseable, compact
  line.append("|").append(AliasOf(user));
  line += rng_.Uniform(10) == 0 ? "|POST|/msg/new|201|" : "|GET|/feed|200|";
  line += std::to_string(128 + rng_.Uniform(8192));
  (void)seq;
  return line;
}

std::vector<adm::Value> Generator::Users() {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(options_.num_users));
  for (int64_t i = 0; i < options_.num_users; i++) out.push_back(MakeUser(i));
  return out;
}

std::vector<adm::Value> Generator::Messages() {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(options_.num_messages));
  for (int64_t i = 0; i < options_.num_messages; i++) {
    out.push_back(MakeMessage(i));
  }
  return out;
}

Status Generator::WriteAccessLog(const std::string& path) {
  std::string content;
  for (int64_t i = 0; i < options_.num_access_log_lines; i++) {
    content += MakeAccessLogLine(i);
    content += "\n";
  }
  return fs::WriteStringToFile(path, content);
}

std::string Generator::Ddl(bool with_indexes) {
  std::string ddl = R"sql(
CREATE TYPE EmploymentType AS {
  organizationName: string, startDate: date, endDate: date?
};
CREATE TYPE GleambookUserType AS {
  id: int, alias: string, name: string, userSince: datetime,
  friendIds: {{ int }}, employment: [EmploymentType]
};
CREATE TYPE GleambookMessageType AS {
  messageId: int, authorId: int, inResponseTo: int?,
  senderLocation: point?, message: string
};
CREATE DATASET GleambookUsers(GleambookUserType) PRIMARY KEY id;
CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId
)sql";
  if (with_indexes) {
    ddl += R"sql(;
CREATE INDEX gbUserSinceIdx ON GleambookUsers (userSince);
CREATE INDEX gbAuthorIdx ON GleambookMessages (authorId) TYPE BTREE;
CREATE INDEX gbSenderLocIndex ON GleambookMessages (senderLocation) TYPE RTREE;
CREATE INDEX gbMessageIdx ON GleambookMessages (message) TYPE KEYWORD
)sql";
  }
  return ddl;
}

}  // namespace asterix::gleambook
